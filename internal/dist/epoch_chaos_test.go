package dist

// Epoch-mode chaos: the asynchronous operation mode must *converge* — a
// cluster that paces itself with lamport-stamped epochs instead of the
// global round barrier, driven through fault injection (drops, delays that
// act as stragglers, torn writes), has to quiesce to the very same
// committed billboard as the classic synchronous run on the same seed,
// byte for byte, with every probe charged exactly once.

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/faultnet"
	"repro/internal/server"
)

func epochChaosClient() client.Options {
	return client.Options{
		Retries: 16, BackoffBase: time.Millisecond, BackoffMax: 20 * time.Millisecond,
		CallTimeout: 10 * time.Second,
	}
}

// epochChaosFault is the standard 11%-per-I/O injection mix; the Delay
// component doubles as the straggler source.
func epochChaosFault() *faultnet.Config {
	return &faultnet.Config{
		Seed:     7,
		Drop:     0.04,
		Delay:    0.04,
		Tear:     0.03,
		MaxDelay: 2 * time.Millisecond,
	}
}

// assertRunsConverge requires the chaotic epoch run to match the clean sync
// run player for player and bit for bit.
func assertRunsConverge(t *testing.T, clean, faulty *ClusterResult) {
	t.Helper()
	for i, r := range faulty.Honest {
		if r.Probes != clean.Honest[i].Probes {
			t.Errorf("player %d: %d probes in epoch mode, %d sync",
				i, r.Probes, clean.Honest[i].Probes)
		}
		if r.Rounds != clean.Honest[i].Rounds {
			t.Errorf("player %d: halted in epoch %d, sync round %d",
				i, r.Rounds, clean.Honest[i].Rounds)
		}
	}
	for i, r := range faulty.Honest {
		if faulty.ServerProbes[i] != r.Probes {
			t.Errorf("player %d: server charged %d probes, client performed %d (double charge)",
				i, faulty.ServerProbes[i], r.Probes)
		}
	}
	if !bytes.Equal(faulty.BoardDigest, clean.BoardDigest) {
		t.Fatalf("epoch run diverged from sync run:\nsync:\n%s\nepoch:\n%s",
			clean.BoardDigest, faulty.BoardDigest)
	}
}

// TestEpochChaosConvergesToSyncDigest is the tentpole convergence bar: the
// same cluster, once synchronous and fault-free, once in epoch mode through
// 11% fault injection — at quiescence the epoch run's committed billboard
// is byte-identical to the sync run's.
func TestEpochChaosConvergesToSyncDigest(t *testing.T) {
	clean, err := RunCluster(context.Background(), chaosBase(t))
	if err != nil {
		t.Fatal(err)
	}
	if !clean.AllFound {
		t.Fatal("sync cluster did not finish")
	}

	epoch := chaosBase(t)
	epoch.Mode = server.ModeEpoch
	epoch.Chaos.Fault = epochChaosFault()
	epoch.SessionGrace = 10 * time.Second
	epoch.Client = epochChaosClient()
	reconnected := watchReconnects(t, &epoch, "swarm_reconnects_total")
	faulty, err := RunCluster(context.Background(), epoch)
	if err != nil {
		t.Fatal(err)
	}
	if !faulty.AllFound {
		t.Fatal("epoch chaos cluster did not finish")
	}
	reconnected()
	assertRunsConverge(t, clean, faulty)
}

// TestEpochSwarmMatchesSyncDigest drives the swarm scheduler against an
// epoch-mode server: one arrival per group per round must land the same
// committed billboard as the sync-mode run on the same seed.
func TestEpochSwarmMatchesSyncDigest(t *testing.T) {
	clean, err := RunCluster(context.Background(), chaosBase(t))
	if err != nil {
		t.Fatal(err)
	}

	epoch := chaosBase(t)
	epoch.Mode = server.ModeEpoch
	swarmed, err := RunCluster(context.Background(), epoch)
	if err != nil {
		t.Fatal(err)
	}
	if !swarmed.AllFound {
		t.Fatal("epoch swarm cluster did not finish")
	}
	assertRunsConverge(t, clean, swarmed)
}

// TestEpochTickClusterCompletes smoke-tests the epoch-mode round deadline at
// cluster scale: with a deadline armed the run keeps its liveness guarantee
// (a search that finishes) even though an expiry may seal an epoch before
// every straggler arrives, so only completion — not digest parity — is
// asserted here. (Sealing past a straggler is pinned at the server level.)
func TestEpochTickClusterCompletes(t *testing.T) {
	cfg := chaosBase(t)
	cfg.Mode = server.ModeEpoch
	cfg.BarrierDeadline = 200 * time.Millisecond
	res, err := RunCluster(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllFound {
		t.Fatal("epoch tick cluster did not finish")
	}
}
