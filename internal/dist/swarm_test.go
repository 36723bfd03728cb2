package dist

// Swarm-driver parity tests. The swarm scheduler multiplexes the whole
// honest fleet onto a few pipelined connections, but the acceptance bar is
// the same exactness the chaos suites pin: a swarm-driven run must be
// observably identical to the goroutine-per-player run on the same seed —
// per-player probe counts, halt rounds, the server's probe ledger, and a
// byte-identical final billboard digest.

import (
	"testing"
	"time"
)

// TestSwarmMatchesGoroutineFleet is the headline parity check on the plain
// single-coordinator path, with an uneven group split so boundary ranges
// are exercised.
func TestSwarmMatchesGoroutineFleet(t *testing.T) {
	clean, err := RunCluster(chaosBase(t))
	if err != nil {
		t.Fatal(err)
	}
	if !clean.AllFound {
		t.Fatal("goroutine fleet did not finish")
	}

	sw := chaosBase(t)
	sw.Drive.Swarm = true
	sw.Drive.SwarmGroups = 3 // 8 players over 3 groups: uneven ranges
	got, err := RunCluster(sw)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesClean(t, clean, got, "swarm")
}

// TestSwarmByzantineMix drives honest players through the swarm while
// Byzantine spammers run as classic per-player clients against the same
// barriers; the digest must match the goroutine run with the same mix.
func TestSwarmByzantineMix(t *testing.T) {
	base := chaosBase(t)
	base.Byzantine = 2
	clean, err := RunCluster(base)
	if err != nil {
		t.Fatal(err)
	}

	sw := chaosBase(t)
	sw.Byzantine = 2
	sw.Drive.Swarm = true
	got, err := RunCluster(sw)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesClean(t, clean, got, "swarm+byzantine")
}

// TestSwarmShardedMatchesSingleShard sends the swarm's posts through shard
// lanes: per-player post indices are stamped at frame build and scattered
// over per-shard connections, and the committed billboard must match the
// fault-free single-shard goroutine baseline.
func TestSwarmShardedMatchesSingleShard(t *testing.T) {
	clean, err := RunCluster(chaosBase(t))
	if err != nil {
		t.Fatal(err)
	}

	sw := chaosBase(t)
	sw.Topology.Shards = 4
	sw.Drive.Swarm = true
	sw.Drive.SwarmGroups = 2
	got, err := RunCluster(sw)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesClean(t, clean, got, "swarm sharded")
}

// TestSwarmReplicatedMatchesSingleCoordinator runs the swarm against a
// 3-replica coordinator group: swarm journal records quorum-commit like any
// other state change, and the outcome matches the plain baseline.
func TestSwarmReplicatedMatchesSingleCoordinator(t *testing.T) {
	clean, err := RunCluster(chaosBase(t))
	if err != nil {
		t.Fatal(err)
	}

	sw := chaosBase(t)
	sw.Topology.Replicas = 3
	sw.PersistDir = t.TempDir()
	sw.SessionGrace = 10 * time.Second
	sw.Client = replicaClientOpts()
	sw.Drive.Swarm = true
	got, err := RunCluster(sw)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesClean(t, clean, got, "swarm replicated")
}
