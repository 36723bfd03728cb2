package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/server"
)

// workload is one benchmark world: the honest swarm, the silent Byzantine
// tokens that never connect, the planted universe, the pacing mode and the
// coordinator topology. Every field is fixed; the seed picks the world.
type workload struct {
	name     string
	honest   int // players driven by the swarm
	silent   int // Byzantine tokens that never register (alpha = honest/(honest+silent))
	m, good  int // planted universe
	mode     server.Mode
	replicas int // 0: one in-memory coordinator; otherwise a replica group with SyncCommit stores
	// rounds is the search's round budget. Only worlds whose search finds
	// every honest player within it are kept, so every world of a workload
	// runs the same DISTILL phases.
	rounds int
	// worlds is how many worlds one run cycles through, so a run's figures
	// average over worlds rather than ride on one.
	worlds int
}

var workloads = []workload{
	// Per-player throughput at scale: 3 big rounds on one sync coordinator.
	{name: "crowd", honest: 200_000, m: 256, good: 8, rounds: 3, worlds: 1},
	// Pacing cost: 36 small epoch-mode rounds.
	{name: "longtail-epoch", honest: 4096, silent: 455, m: 65_536, good: 1, mode: server.ModeEpoch, rounds: 36, worlds: 8},
	// Journal and replication cost: 9 rounds on a 3-replica quorum group.
	{name: "quorum", honest: 4096, silent: 455, m: 16_384, good: 2, replicas: 3, rounds: 9, worlds: 8},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// reference is the same world on the plainest topology: sync pacing, one
// coordinator, in memory. Its digest is the correctness gate of every
// timed search.
func (w workload) reference() workload {
	w.mode, w.replicas = server.ModeSync, 0
	return w
}

// cluster is one set-up coordinator (a single server or a replica group)
// ready for the swarm to connect.
type cluster struct {
	addr      string
	fallbacks []string
	token     string
	srv       *server.Server
	nodes     []*server.ReplicaNode
	dir       string // persist root of a replica group ("" in memory)
}

// setUp builds the world's universe, tokens and coordinator, timing each
// step as a child span of parent. dir is where a replica group keeps its
// stores; reg, when non-nil, receives the server_* and billboard_* families.
func setUp(w workload, seed uint64, dir string, reg *obs.Registry, rec *spanRecorder, parent, search int) (*cluster, error) {
	sp := rec.begin("setup.universe", parent, search)
	u, err := object.NewPlanted(object.Planted{M: w.m, Good: w.good}, rng.New(seed))
	rec.end(sp)
	if err != nil {
		return nil, err
	}

	sp = rec.begin("setup.tokens", parent, search)
	n := w.honest + w.silent
	tokens := make([]string, n)
	tokenRng := rng.New(seed).Split(9999)
	for i := range tokens {
		tokens[i] = fmt.Sprintf("tok-%d-%016x", i, tokenRng.Uint64())
	}
	c := &cluster{token: fmt.Sprintf("swarm-%016x", tokenRng.Uint64())}
	rec.end(sp)

	scfg := server.Config{
		Universe:   u,
		Tokens:     tokens,
		Alpha:      float64(w.honest) / float64(n),
		Beta:       u.Beta(),
		Expected:   w.honest,
		Mode:       w.mode,
		SwarmToken: c.token,
		Metrics:    reg,
	}
	sp = rec.begin("setup.coordinator", parent, search)
	defer rec.end(sp)
	if w.replicas == 0 {
		srv, err := server.New(scfg)
		if err != nil {
			return nil, err
		}
		c.srv = srv
		if c.addr, err = srv.Start("127.0.0.1:0"); err != nil {
			srv.Close()
			return nil, err
		}
		return c, nil
	}
	c.dir = dir
	if err := c.startGroup(w.replicas, scfg); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// startGroup binds every listener first (so the address book is complete),
// starts the replicas, and waits until replica 0 leads with a live server.
func (c *cluster) startGroup(size int, scfg server.Config) error {
	repLns := make([]net.Listener, size)
	clientLns := make([]net.Listener, size)
	peers := make([]string, size)
	addrs := make([]string, size)
	closeFrom := func(i int) {
		for ; i < size; i++ {
			for _, ln := range []net.Listener{repLns[i], clientLns[i]} {
				if ln != nil {
					ln.Close()
				}
			}
		}
	}
	for i := 0; i < size; i++ {
		var err error
		if repLns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			closeFrom(0)
			return err
		}
		if clientLns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			closeFrom(0)
			return err
		}
		peers[i], addrs[i] = repLns[i].Addr().String(), clientLns[i].Addr().String()
	}
	for i := 0; i < size; i++ {
		node, err := server.StartReplica(server.ReplicaConfig{
			ID:             i,
			Peers:          peers,
			ClientAddrs:    addrs,
			Dir:            filepath.Join(c.dir, fmt.Sprintf("replica-%d", i)),
			RepListener:    repLns[i],
			ClientListener: clientLns[i],
		}, scfg)
		if err != nil {
			closeFrom(i)
			return err
		}
		c.nodes = append(c.nodes, node)
	}
	c.addr, c.fallbacks = addrs[0], addrs[1:]
	deadline := time.Now().Add(10 * time.Second)
	for c.leader() == nil {
		if time.Now().After(deadline) {
			return errors.New("replica group: no leader within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// leader returns the serving coordinator: the single server, or the
// current leader's server (nil while none leads).
func (c *cluster) leader() *server.Server {
	if c.srv != nil {
		return c.srv
	}
	for _, node := range c.nodes {
		if leading, _ := node.Leader(); leading {
			return node.Server()
		}
	}
	return nil
}

// digest is the SHA-256 of the committed board digest at the serving
// coordinator (the board digest itself runs to megabytes).
func (c *cluster) digest() [sha256.Size]byte {
	var d []byte
	if srv := c.leader(); srv != nil {
		d = srv.Digest()
	}
	return sha256.Sum256(d)
}

// journalBytes sums the size of every file under the group's persist root.
func (c *cluster) journalBytes() (int64, error) {
	if c.dir == "" {
		return 0, nil
	}
	var total int64
	err := filepath.WalkDir(c.dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// close stops every coordinator and deletes the persist root.
func (c *cluster) close() {
	if c.srv != nil {
		c.srv.Close()
	}
	for _, node := range c.nodes {
		node.Close()
	}
	if c.dir != "" {
		os.RemoveAll(c.dir)
	}
}
