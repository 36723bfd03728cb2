package dist

// Replicated-coordinator cluster runs. With Topology.Replicas > 1 the
// billboard service is a replica group (server.StartReplica): a leader
// quorum-commits every round into the group before clients see it, and a
// follower takes over when the leader dies. The runner gives every player
// the full client-address list as dial fallbacks, so a leader kill looks to
// them like any other transport fault: retry, redirect, resume.

import (
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"time"

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
// complete before any node starts) and launches the group, each member
// serving scfg.
func startReplicaCluster(cfg *ClusterConfig, scfg server.Config) (*replicaCluster, error) {
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

// startReplicas starts the replica group (Topology.Replicas > 1), with the
// KillLeaderAtRound failover hook when the chaos schedule asks for it.
// Players dial the first member and fall back to the others.
func startReplicas(cfg *ClusterConfig, sc server.Config) (*service, error) {
	if cfg.PersistDir == "" {
		return nil, fmt.Errorf("dist: Replicas > 1 requires PersistDir")
	}
	if cfg.Chaos.KillAtRound > 0 {
		return nil, fmt.Errorf("dist: KillAtRound is the single-coordinator restart hook; use KillLeaderAtRound with Replicas > 1")
	}
	rc, err := startReplicaCluster(cfg, sc)
	if err != nil {
		return nil, err
	}

	// KillLeaderAtRound hook: the moment the leader's committed round
	// counter reaches the target, crash-stop the leader with every client in
	// flight. The survivors elect, replay the quorum-committed prefix, and
	// pick the round up where the group (not the dead leader) left it.
	stop := func() {}
	if cfg.Chaos.KillLeaderAtRound > 0 {
		stop = watch(func(quit <-chan struct{}) {
			for {
				select {
				case <-quit:
					return
				case <-time.After(2 * time.Millisecond):
				}
				if rc.leaderRound() >= cfg.Chaos.KillLeaderAtRound && rc.killLeader() {
					return
				}
			}
		})
	}
	return &service{
		addrs: rc.clientAddrs,
		stop: func() (int, error) {
			stop()
			rc.mu.Lock()
			defer rc.mu.Unlock()
			return rc.kills, nil
		},
		final: rc.final,
		close: rc.closeAll,
	}, nil
}

// final returns the current leader's server, waiting briefly for one if
// the last kill landed after the players finished.
func (rc *replicaCluster) final() (*server.Server, error) {
	for i := 0; i < 1000; i++ {
		if node := rc.leaderNode(); node != nil {
			if srv := node.Server(); srv != nil {
				return srv, nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil, fmt.Errorf("dist: no leader at teardown")
}
