package dist

// Replicated-coordinator chaos tests. The acceptance bar is the strongest
// in the suite: a run that quorum-commits every round into a replica group —
// even one that loses its leader mid-round, even with transport faults
// layered on top — must converge to the very same committed
// billboard as the fault-free single-coordinator run on the same seed, with
// every probe charged exactly once. And a 1-replica configuration must be
// the classic single coordinator, not a degenerate group.

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/faultnet"
)

// replicaClientOpts sizes retries for elections: a failover stalls clients
// for a few hundred milliseconds, which must exhaust backoff budget slowly
// enough that every player rides it out.
func replicaClientOpts() client.Options {
	return client.Options{
		Retries: 40, BackoffBase: time.Millisecond, BackoffMax: 50 * time.Millisecond,
		CallTimeout: 10 * time.Second,
	}
}

// TestChaosReplicasOneIsSingleCoordinator pins the compatibility contract:
// Replicas <= 1 takes the classic single-server path and its outcome is
// byte-identical to a run that never mentions replication.
func TestChaosReplicasOneIsSingleCoordinator(t *testing.T) {
	clean, err := RunCluster(context.Background(), chaosBase(t))
	if err != nil {
		t.Fatal(err)
	}
	one := chaosBase(t)
	one.Topology.Replicas = 1
	got, err := RunCluster(context.Background(), one)
	if err != nil {
		t.Fatal(err)
	}
	if got.Failovers != 0 {
		t.Fatalf("single coordinator reported %d failovers", got.Failovers)
	}
	assertMatchesClean(t, clean, got, "replicas=1")
	if !bytes.Equal(got.BoardDigest, clean.BoardDigest) {
		t.Fatal("replicas=1 digest differs from plain run")
	}
}

// TestChaosReplicatedMatchesSingleCoordinator runs the same search against
// a healthy 3-replica group: every round is quorum-committed before clients
// observe it, and the final billboard must be byte-identical to the plain
// single-coordinator run.
func TestChaosReplicatedMatchesSingleCoordinator(t *testing.T) {
	clean, err := RunCluster(context.Background(), chaosBase(t))
	if err != nil {
		t.Fatal(err)
	}
	if !clean.AllFound {
		t.Fatal("fault-free cluster did not finish")
	}

	rep := chaosBase(t)
	rep.Topology.Replicas = 3
	rep.PersistDir = t.TempDir()
	rep.SessionGrace = 10 * time.Second
	rep.Client = replicaClientOpts()
	got, err := RunCluster(context.Background(), rep)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesClean(t, clean, got, "replicated")
}

// TestChaosLeaderFailoverMatchesFaultFree is the headline acceptance test:
// the leader is crash-stopped mid-round with every client in flight, a
// follower takes over by replaying the quorum-committed prefix and
// discarding the uncommitted tail, and the run must still be observably
// identical to the fault-free single-coordinator baseline — same digest,
// zero double-charged probes. It holds with no session grace too: a
// failover is not a client disconnect, so the promoted leader keeps the
// recovered sessions resumable for its failover bound.
func TestChaosLeaderFailoverMatchesFaultFree(t *testing.T) {
	clean, err := RunCluster(context.Background(), chaosBase(t))
	if err != nil {
		t.Fatal(err)
	}
	if !clean.AllFound {
		t.Fatal("fault-free cluster did not finish")
	}

	for _, grace := range []time.Duration{10 * time.Second, 0} {
		t.Run(fmt.Sprintf("grace-%v", grace), func(t *testing.T) {
			crash := chaosBase(t)
			crash.Topology.Replicas = 3
			crash.PersistDir = t.TempDir()
			crash.Chaos.KillLeaderAtRound = 3
			crash.SessionGrace = grace
			crash.BarrierDeadline = 30 * time.Second // must never fire here
			crash.Client = replicaClientOpts()
			crash.Logf = t.Logf
			got, err := RunCluster(context.Background(), crash)
			if err != nil {
				t.Fatal(err)
			}
			if got.Failovers != 1 {
				t.Fatalf("expected exactly one leader kill, got %d", got.Failovers)
			}
			assertMatchesClean(t, clean, got, "across leader failover")
		})
	}
}

// TestChaosLeaderFailoverUnderFaultInjection layers ~11% transport fault
// injection over the failover: client frames drop, stall, and tear while
// the leader dies and the group re-elects. Retry, redirect, session resume,
// and quorum replay must compose; digest and ledger must still match the
// fault-free run.
func TestChaosLeaderFailoverUnderFaultInjection(t *testing.T) {
	clean, err := RunCluster(context.Background(), chaosBase(t))
	if err != nil {
		t.Fatal(err)
	}

	chaos := chaosBase(t)
	chaos.Topology.Replicas = 3
	chaos.PersistDir = t.TempDir()
	chaos.Chaos.KillLeaderAtRound = 3
	chaos.Chaos.Fault = &faultnet.Config{
		Seed:     31,
		Drop:     0.04,
		Delay:    0.04,
		Tear:     0.03, // 11% total injection per I/O operation
		MaxDelay: 2 * time.Millisecond,
	}
	chaos.SessionGrace = 10 * time.Second
	chaos.BarrierDeadline = 30 * time.Second
	chaos.Client = replicaClientOpts()
	reconnected := watchReconnects(t, &chaos, "swarm_reconnects_total")
	got, err := RunCluster(context.Background(), chaos)
	if err != nil {
		t.Fatal(err)
	}
	if got.Failovers != 1 {
		t.Fatalf("expected exactly one leader kill, got %d", got.Failovers)
	}
	reconnected()
	assertMatchesClean(t, clean, got, "failover under faults")
}
