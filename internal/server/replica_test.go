package server_test

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/faultnet"
	"repro/internal/object"
	"repro/internal/rng"
	"repro/internal/server"
)

func TestReplicaValidate(t *testing.T) {
	base := func() server.ReplicaConfig {
		return server.ReplicaConfig{
			ID:          0,
			Peers:       []string{"a", "b", "c"},
			ClientAddrs: []string{"ca", "cb", "cc"},
			Dir:         t.TempDir(),
		}
	}
	cases := []struct {
		name string
		mut  func(*server.ReplicaConfig)
		code string
	}{
		{"ok", func(rc *server.ReplicaConfig) {}, ""},
		{"empty group", func(rc *server.ReplicaConfig) { rc.Peers = nil; rc.ClientAddrs = nil }, "empty-group"},
		{"even group", func(rc *server.ReplicaConfig) {
			rc.Peers = []string{"a", "b"}
			rc.ClientAddrs = []string{"ca", "cb"}
		}, "even-group"},
		{"id out of range", func(rc *server.ReplicaConfig) { rc.ID = 3 }, "id-out-of-range"},
		{"addr mismatch", func(rc *server.ReplicaConfig) { rc.ClientAddrs = rc.ClientAddrs[:2] }, "addr-mismatch"},
		{"missing dir", func(rc *server.ReplicaConfig) { rc.Dir = "" }, "missing-dir"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rc := base()
			tc.mut(&rc)
			err := rc.Validate()
			if tc.code == "" {
				if err != nil {
					t.Fatalf("Validate: %v", err)
				}
				return
			}
			var ce *server.ReplicaConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("Validate = %v, want *ReplicaConfigError", err)
			}
			if ce.Code != tc.code {
				t.Fatalf("code = %q, want %q", ce.Code, tc.code)
			}
		})
	}
}

// replicaGroup is a test harness: n replica nodes on loopback listeners.
type replicaGroup struct {
	nodes       []*server.ReplicaNode
	clientAddrs []string
}

// startReplicaGroup launches an n-member group over the given service
// config (Persist knobs unset; the nodes own their stores). mutate, when
// non-nil, tweaks each node's ReplicaConfig before start.
func startReplicaGroup(t testing.TB, n int, scfg server.Config, mutate func(i int, rc *server.ReplicaConfig)) *replicaGroup {
	t.Helper()
	root := t.TempDir()
	repLns := make([]net.Listener, n)
	clientLns := make([]net.Listener, n)
	peers := make([]string, n)
	clients := make([]string, n)
	for i := 0; i < n; i++ {
		var err error
		if repLns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		if clientLns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		peers[i] = repLns[i].Addr().String()
		clients[i] = clientLns[i].Addr().String()
	}
	g := &replicaGroup{nodes: make([]*server.ReplicaNode, n), clientAddrs: clients}
	for i := 0; i < n; i++ {
		rc := server.ReplicaConfig{
			ID:              i,
			Peers:           peers,
			ClientAddrs:     clients,
			Dir:             filepath.Join(root, fmt.Sprintf("replica-%d", i)),
			HeartbeatEvery:  10 * time.Millisecond,
			ElectionTimeout: 60 * time.Millisecond,
			RepListener:     repLns[i],
			ClientListener:  clientLns[i],
			Logf:            t.Logf,
		}
		if mutate != nil {
			mutate(i, &rc)
		}
		node, err := server.StartReplica(rc, scfg)
		if err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		g.nodes[i] = node
	}
	t.Cleanup(func() {
		for _, node := range g.nodes {
			if node != nil {
				node.Close()
			}
		}
	})
	return g
}

// leader returns the current leader node, waiting up to 5s for one.
func (g *replicaGroup) leader(t testing.TB) *server.ReplicaNode {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, node := range g.nodes {
			if node == nil {
				continue
			}
			if leading, _ := node.Leader(); leading {
				return node
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no leader elected within 5s")
	return nil
}

// replicaUniverse is the shared deterministic ground truth of these tests.
func replicaUniverse(t *testing.T) *object.Universe {
	t.Helper()
	u, err := object.NewPlanted(object.Planted{M: 24, Good: 6}, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// runReplicaWorkload drives players through rounds of probe + post +
// barrier against the group, returning each client's first error.
func runReplicaWorkload(t *testing.T, g *replicaGroup, tokens []string, rounds int) {
	t.Helper()
	errs := make(chan error, len(tokens))
	for p := range tokens {
		go func(p int) {
			c, err := client.DialOptions(g.clientAddrs[0], p, tokens[p], client.Options{
				Fallbacks:   g.clientAddrs[1:],
				Retries:     40,
				BackoffBase: 2 * time.Millisecond,
				BackoffMax:  50 * time.Millisecond,
			})
			if err != nil {
				errs <- fmt.Errorf("player %d: dial: %w", p, err)
				return
			}
			defer c.Close()
			for r := 0; r < rounds; r++ {
				obj := (p + r*len(tokens)) % c.M()
				if _, err := c.Probe(obj); err != nil {
					errs <- fmt.Errorf("player %d round %d: probe: %w", p, r, err)
					return
				}
				if _, err := c.PostBatch([]client.BatchPost{
					{Object: obj, Value: float64(obj), Positive: p%2 == 0},
				}, true); err != nil {
					errs <- fmt.Errorf("player %d round %d: batch: %w", p, r, err)
					return
				}
			}
			errs <- c.Done()
		}(p)
	}
	for range tokens {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// singleDigest runs the identical workload against a plain unreplicated
// server and returns its digest — the equivalence oracle.
func singleDigest(t *testing.T, scfg server.Config, tokens []string, rounds int) []byte {
	t.Helper()
	srv, err := server.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	g := &replicaGroup{clientAddrs: []string{addr}}
	runReplicaWorkload(t, g, tokens, rounds)
	return srv.Digest()
}

func TestReplicatedRoundCommit(t *testing.T) {
	u := replicaUniverse(t)
	tokens := []string{"t0", "t1", "t2"}
	scfg := server.Config{
		Universe: u, Tokens: tokens, Alpha: 1, Beta: u.Beta(),
		SessionGrace: 5 * time.Second,
	}
	const rounds = 5
	g := startReplicaGroup(t, 3, scfg, nil)
	runReplicaWorkload(t, g, tokens, rounds)

	ldr := g.leader(t)
	srv := ldr.Server()
	if srv == nil {
		t.Fatal("leader has no server")
	}
	if got := srv.Round(); got != rounds {
		t.Fatalf("leader round = %d, want %d", got, rounds)
	}
	want := singleDigest(t, scfg, tokens, rounds)
	if got := srv.Digest(); string(got) != string(want) {
		t.Fatalf("replicated digest differs from single-coordinator run")
	}
	probes, _, _, _ := srv.Stats()
	for p, n := range probes {
		if n != rounds {
			t.Fatalf("player %d charged %d probes, want %d (exactly-once billing)", p, n, rounds)
		}
	}
}

func TestLeaderFailover(t *testing.T) {
	u := replicaUniverse(t)
	tokens := []string{"t0", "t1", "t2"}
	scfg := server.Config{
		Universe: u, Tokens: tokens, Alpha: 1, Beta: u.Beta(),
		SessionGrace: 10 * time.Second,
	}
	const rounds = 8
	g := startReplicaGroup(t, 3, scfg, nil)

	// Kill the bootstrap leader mid-run: once it has committed a few
	// rounds, crash-stop it while the players keep going.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			srv := g.nodes[0].Server()
			if srv != nil && srv.Round() >= 3 {
				g.nodes[0].Kill()
				g.nodes[0] = nil
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	runReplicaWorkload(t, g, tokens, rounds)
	<-killed
	if g.nodes[0] != nil {
		t.Fatal("leader was never killed (round 3 not reached in time)")
	}

	ldr := g.leader(t)
	if leading, id := ldr.Leader(); !leading || id == 0 {
		t.Fatalf("leader after failover = %v/%d, want a non-0 survivor", leading, id)
	}
	srv := ldr.Server()
	if got := srv.Round(); got != rounds {
		t.Fatalf("round after failover = %d, want %d", got, rounds)
	}
	want := singleDigest(t, scfg, tokens, rounds)
	if got := srv.Digest(); string(got) != string(want) {
		t.Fatalf("post-failover digest differs from fault-free single-coordinator run")
	}
	probes, _, _, _ := srv.Stats()
	for p, n := range probes {
		if n != rounds {
			t.Fatalf("player %d charged %d probes across failover, want %d", p, n, rounds)
		}
	}
}

func TestLeaderIsolationStepDown(t *testing.T) {
	u := replicaUniverse(t)
	tokens := []string{"t0", "t1"}
	scfg := server.Config{
		Universe: u, Tokens: tokens, Alpha: 1, Beta: u.Beta(),
		SessionGrace: 10 * time.Second,
	}
	inj, err := faultnet.New(faultnet.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const leaderLabel = 100
	g := startReplicaGroup(t, 3, scfg, func(i int, rc *server.ReplicaConfig) {
		if i == 0 {
			// The bootstrap leader's outbound replication runs through the
			// injector so the test can cut it one-way.
			rc.Dial = inj.Dialer(leaderLabel, nil)
		}
	})
	if leading, _ := g.nodes[0].Leader(); !leading {
		t.Fatal("node 0 did not bootstrap as leader")
	}

	// One-way partition: node 0 still hears its peers (reads work) but none
	// of its heartbeats or appends escape. The followers must elect a new
	// leader, whose higher-term traffic then demotes node 0.
	inj.Isolate(leaderLabel)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if leading, _ := g.nodes[0].Leader(); !leading {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if leading, _ := g.nodes[0].Leader(); leading {
		t.Fatal("isolated leader never stepped down")
	}
	ldr := g.leader(t)
	if leading, id := ldr.Leader(); !leading || id == 0 {
		t.Fatalf("new leader = %v/%d, want a different node", leading, id)
	}
	// Heal: node 0 rejoins as a follower of the new term and the group
	// still serves a full workload.
	inj.Heal(leaderLabel)
	runReplicaWorkload(t, g, tokens, 3)
	if got := g.leader(t).Server().Round(); got != 3 {
		t.Fatalf("round after heal = %d, want 3", got)
	}
}
