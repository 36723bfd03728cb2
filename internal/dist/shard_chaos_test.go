package dist

// Sharded-cluster chaos tests. The acceptance bar matches the other chaos
// suites and the paper's synchrony contract: a sharded run — even one that
// loses and recovers a shard lane mid-search, even under transport fault
// injection — must converge to the very same committed billboard as the
// fault-free single-shard run on the same seed, with every probe charged
// exactly once.

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/faultnet"
)

// assertMatchesClean pins the full equivalence bar between a sharded run
// and the fault-free single-shard baseline.
func assertMatchesClean(t *testing.T, clean, got *ClusterResult, label string) {
	t.Helper()
	if !got.AllFound {
		t.Fatalf("%s cluster did not finish", label)
	}
	for i, r := range got.Honest {
		if r.Probes != clean.Honest[i].Probes {
			t.Errorf("player %d: %d probes %s, %d clean", i, r.Probes, label, clean.Honest[i].Probes)
		}
		if r.Rounds != clean.Honest[i].Rounds {
			t.Errorf("player %d: halted in round %d %s, %d clean", i, r.Rounds, label, clean.Honest[i].Rounds)
		}
		if got.ServerProbes[i] != r.Probes {
			t.Errorf("player %d: server charged %d probes, client performed %d (double charge)",
				i, got.ServerProbes[i], r.Probes)
		}
	}
	if !bytes.Equal(got.BoardDigest, clean.BoardDigest) {
		t.Fatalf("billboard diverged (%s):\nclean:\n%s\ngot:\n%s", label, clean.BoardDigest, got.BoardDigest)
	}
}

// TestChaosShardedMatchesSingleShard runs the same cluster on a 1-shard and
// a 4-shard server: identical per-player outcomes and a byte-identical
// final billboard digest, with the posts scattered over four lanes and
// committed through the global admission pass.
func TestChaosShardedMatchesSingleShard(t *testing.T) {
	clean, err := RunCluster(chaosBase(t))
	if err != nil {
		t.Fatal(err)
	}
	if !clean.AllFound {
		t.Fatal("fault-free cluster did not finish")
	}

	sharded := chaosBase(t)
	sharded.Topology.Shards = 4
	got, err := RunCluster(sharded)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesClean(t, clean, got, "sharded")
}

// TestChaosShardKillRestartMatchesFaultFree is the partial-failure
// acceptance test: one shard lane is killed mid-search — its board and
// pending posts dropped, its store closed — and rebuilt from its per-shard
// journal while the rest of the cluster keeps running. Round commits stall
// on the shard barrier until the lane is back; the run must still be
// observably identical to the fault-free single-shard baseline.
func TestChaosShardKillRestartMatchesFaultFree(t *testing.T) {
	clean, err := RunCluster(chaosBase(t))
	if err != nil {
		t.Fatal(err)
	}
	if !clean.AllFound {
		t.Fatal("fault-free cluster did not finish")
	}

	crash := chaosBase(t)
	crash.Topology.Shards = 4
	crash.PersistDir = t.TempDir()
	crash.SnapshotEvery = 3
	crash.Chaos.KillShardAtRound = 2
	crash.SessionGrace = 10 * time.Second
	crash.BarrierDeadline = 30 * time.Second // must never fire here
	crash.Client = client.Options{
		Retries: 24, BackoffBase: time.Millisecond, BackoffMax: 20 * time.Millisecond,
		CallTimeout: 10 * time.Second,
	}
	crash.Logf = t.Logf
	got, err := RunCluster(crash)
	if err != nil {
		t.Fatal(err)
	}
	if got.ShardRestarts != 1 {
		t.Fatalf("expected exactly one shard restart, got %d", got.ShardRestarts)
	}
	assertMatchesClean(t, clean, got, "across shard restart")
}

// TestChaosShardedUnderFaultInjection layers transport fault injection over
// a sharded server: frames drop, stall, and tear, so retry and session
// resume must compose with the per-lane accept path and the scatter-gather
// reads. Digest and ledger must still match the fault-free single-shard
// run.
func TestChaosShardedUnderFaultInjection(t *testing.T) {
	clean, err := RunCluster(chaosBase(t))
	if err != nil {
		t.Fatal(err)
	}

	chaos := chaosBase(t)
	chaos.Topology.Shards = 4
	chaos.Chaos.Fault = &faultnet.Config{
		Seed:     29,
		Drop:     0.04,
		Delay:    0.04,
		Tear:     0.03, // 11% total injection per I/O operation
		MaxDelay: 2 * time.Millisecond,
	}
	chaos.SessionGrace = 10 * time.Second
	chaos.BarrierDeadline = 30 * time.Second
	chaos.Client = client.Options{
		Retries: 24, BackoffBase: time.Millisecond, BackoffMax: 20 * time.Millisecond,
		CallTimeout: 10 * time.Second,
	}
	reconnected := watchReconnects(t, &chaos, "swarm_reconnects_total")
	got, err := RunCluster(chaos)
	if err != nil {
		t.Fatal(err)
	}
	reconnected()
	assertMatchesClean(t, clean, got, "sharded under faults")
}

// TestChaosShardedServerKillRestartMatchesFaultFree restarts a whole
// sharded server under the swarm: the coordinator and all four lanes go
// down once the round counter reaches 2 and recover from their persist
// dirs, and the swarm resumes its sessions on the new server. The second
// row adds the transport faults of TestChaosKillRestartUnderFaultInjection.
// Digest, per-player probes and the server's probe ledger must equal the
// fault-free single-shard run. The kill often lands just after a seal, with
// nothing of the open round to roll back; the rollback itself is pinned by
// TestPersistShardedRollsBackUncommittedPosts in internal/server.
func TestChaosShardedServerKillRestartMatchesFaultFree(t *testing.T) {
	clean, err := RunCluster(chaosBase(t))
	if err != nil {
		t.Fatal(err)
	}
	if !clean.AllFound {
		t.Fatal("fault-free cluster did not finish")
	}
	for _, row := range []struct {
		name  string
		fault *faultnet.Config
	}{
		{"clean", nil},
		{"faults", &faultnet.Config{Seed: 23, Drop: 0.03, Delay: 0.03, Tear: 0.02, MaxDelay: 2 * time.Millisecond}},
	} {
		t.Run(row.name, func(t *testing.T) {
			crash := chaosBase(t)
			crash.Topology.Shards = 4
			crash.PersistDir = t.TempDir()
			crash.SnapshotEvery = 3
			crash.Chaos.KillAtRound = 2
			crash.Chaos.Fault = row.fault
			crash.SessionGrace = 10 * time.Second
			crash.BarrierDeadline = 30 * time.Second // must never fire here
			crash.Client = client.Options{
				Retries: 32, BackoffBase: time.Millisecond, BackoffMax: 20 * time.Millisecond,
				CallTimeout: 10 * time.Second,
			}
			crash.Logf = t.Logf
			got, err := RunCluster(crash)
			if err != nil {
				t.Fatal(err)
			}
			if got.Restarts != 1 {
				t.Fatalf("expected exactly one server restart, got %d", got.Restarts)
			}
			assertMatchesClean(t, clean, got, "across a sharded server restart")
		})
	}
}
