package dist

// Replicated-coordinator cluster runs. With Topology.Replicas > 1 the
// billboard service is a replica group (server.StartReplica): a leader
// quorum-commits every round into the group before clients see it, and a
// follower takes over when the leader dies. The harness gives every player
// the full client-address list as dial fallbacks, so a leader kill looks to
// them like any other transport fault: retry, redirect, resume.

import (
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/faultnet"
	"repro/internal/server"
)

// replicaCluster is the live replica group of one distributed run.
type replicaCluster struct {
	mu          sync.Mutex
	nodes       []*server.ReplicaNode
	clientAddrs []string
	kills       int
}

// leaderNode returns the current leader (nil while an election runs).
func (rc *replicaCluster) leaderNode() *server.ReplicaNode {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	for _, node := range rc.nodes {
		if node == nil {
			continue
		}
		if leading, _ := node.Leader(); leading {
			return node
		}
	}
	return nil
}

// leaderRound reports the committed round at the current leader (-1 while
// no leader is known).
func (rc *replicaCluster) leaderRound() int {
	node := rc.leaderNode()
	if node == nil {
		return -1
	}
	srv := node.Server()
	if srv == nil {
		return -1
	}
	return srv.Round()
}

// killLeader crash-stops the current leader, if any. Returns whether a kill
// happened.
func (rc *replicaCluster) killLeader() bool {
	node := rc.leaderNode()
	if node == nil {
		return false
	}
	_, id := node.Leader()
	rc.mu.Lock()
	if id < 0 || id >= len(rc.nodes) || rc.nodes[id] != node {
		rc.mu.Unlock()
		return false
	}
	rc.nodes[id] = nil
	rc.kills++
	rc.mu.Unlock()
	node.Kill()
	return true
}

func (rc *replicaCluster) closeAll() {
	rc.mu.Lock()
	nodes := append([]*server.ReplicaNode(nil), rc.nodes...)
	rc.mu.Unlock()
	for _, node := range nodes {
		if node != nil {
			node.Close()
		}
	}
}

// startReplicaCluster binds every listener up front (so the address book is
// complete before any node starts) and launches the group.
func startReplicaCluster(cfg ClusterConfig, tokens []string, swarmToken string) (*replicaCluster, error) {
	n := cfg.Honest + cfg.Byzantine
	scfg := server.Config{
		Universe:        cfg.Universe,
		Tokens:          tokens,
		Alpha:           float64(cfg.Honest) / float64(n),
		Beta:            cfg.Universe.Beta(),
		SessionGrace:    cfg.SessionGrace,
		BarrierDeadline: cfg.BarrierDeadline,
		Mode:            cfg.Mode,
		SwarmToken:      swarmToken,
		SnapshotEvery:   cfg.SnapshotEvery,
		Logf:            cfg.Logf,
	}
	reps := cfg.Topology.Replicas
	repLns := make([]net.Listener, reps)
	clientLns := make([]net.Listener, reps)
	peers := make([]string, reps)
	clients := make([]string, reps)
	closeLns := func() {
		for i := 0; i < reps; i++ {
			if repLns[i] != nil {
				repLns[i].Close()
			}
			if clientLns[i] != nil {
				clientLns[i].Close()
			}
		}
	}
	for i := 0; i < reps; i++ {
		var err error
		if repLns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			closeLns()
			return nil, fmt.Errorf("dist: replica %d rep listener: %w", i, err)
		}
		if clientLns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			closeLns()
			return nil, fmt.Errorf("dist: replica %d client listener: %w", i, err)
		}
		peers[i] = repLns[i].Addr().String()
		clients[i] = clientLns[i].Addr().String()
	}
	rc := &replicaCluster{nodes: make([]*server.ReplicaNode, reps), clientAddrs: clients}
	for i := 0; i < reps; i++ {
		node, err := server.StartReplica(server.ReplicaConfig{
			ID:              i,
			Peers:           peers,
			ClientAddrs:     clients,
			Quorum:          cfg.Topology.ReplicaQuorum,
			Dir:             filepath.Join(cfg.PersistDir, fmt.Sprintf("replica-%d", i)),
			HeartbeatEvery:  10 * time.Millisecond,
			ElectionTimeout: 75 * time.Millisecond,
			RepListener:     repLns[i],
			ClientListener:  clientLns[i],
			Logf:            cfg.Logf,
		}, scfg)
		if err != nil {
			rc.closeAll()
			// Listeners for nodes not yet started are still ours to close.
			for j := i; j < reps; j++ {
				repLns[j].Close()
				clientLns[j].Close()
			}
			return nil, fmt.Errorf("dist: replica %d: %w", i, err)
		}
		rc.nodes[i] = node
	}
	return rc, nil
}

// runReplicated is RunCluster's replica-group branch (Topology.Replicas > 1).
func runReplicated(cfg ClusterConfig, honestFleet fleet) (*ClusterResult, error) {
	if cfg.PersistDir == "" {
		return nil, fmt.Errorf("dist: Replicas > 1 requires PersistDir")
	}
	if cfg.Chaos.KillAtRound > 0 {
		return nil, fmt.Errorf("dist: KillAtRound is the single-coordinator restart hook; use KillLeaderAtRound with Replicas > 1")
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = 4096
	}
	tokens, swarmToken := mintTokens(cfg.Seed, cfg.Honest+cfg.Byzantine)
	rc, err := startReplicaCluster(cfg, tokens, swarmToken)
	if err != nil {
		return nil, err
	}
	defer rc.closeAll()

	// KillLeaderAtRound watcher: the moment the leader's committed round
	// counter reaches the target, crash-stop the leader with every client in
	// flight. The survivors elect, replay the quorum-committed prefix, and
	// pick the round up where the group (not the dead leader) left it.
	killerDone := make(chan struct{})
	killerStop := make(chan struct{})
	if cfg.Chaos.KillLeaderAtRound > 0 {
		go func() {
			defer close(killerDone)
			for {
				select {
				case <-killerStop:
					return
				case <-time.After(2 * time.Millisecond):
				}
				if rc.leaderRound() < cfg.Chaos.KillLeaderAtRound {
					continue
				}
				if rc.killLeader() {
					return
				}
			}
		}()
	} else {
		close(killerDone)
	}

	playerOptions := func(player int) (client.Options, error) {
		opt := cfg.Client
		opt.Fallbacks = append(append([]string(nil), opt.Fallbacks...), rc.clientAddrs[1:]...)
		if cfg.Chaos.Fault != nil {
			inj, err := faultnet.New(*cfg.Chaos.Fault)
			if err != nil {
				return opt, err
			}
			opt.Dialer = inj.Dialer(uint64(player), opt.Dialer)
		}
		return opt, nil
	}

	var byzWG sync.WaitGroup
	for b := 0; b < cfg.Byzantine; b++ {
		player := cfg.Honest + b
		opt, err := playerOptions(player)
		if err != nil {
			return nil, err
		}
		byzWG.Add(1)
		go func(player int, opt client.Options) {
			defer byzWG.Done()
			_ = runByzantineSpam(rc.clientAddrs[0], player, tokens[player], opt)
		}(player, opt)
	}
	results, honestErr := honestFleet(&cfg, rc.clientAddrs[0], tokens, swarmToken, playerOptions)
	byzWG.Wait()
	close(killerStop)
	<-killerDone
	if honestErr != nil {
		return nil, honestErr
	}

	// Final state is whatever the current leader committed; wait briefly for
	// one if the last kill landed after the players finished.
	var final *server.Server
	for i := 0; i < 1000; i++ {
		if node := rc.leaderNode(); node != nil {
			if srv := node.Server(); srv != nil {
				final = srv
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if final == nil {
		return nil, fmt.Errorf("dist: no leader at teardown")
	}
	out := summarize(results, final)
	out.Failovers = rc.kills
	return out, nil
}
