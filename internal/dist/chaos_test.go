package dist

// Chaos tests: full DISTILL searches through deterministic fault injection.
// The acceptance bar is exact — a faulty run must converge to the very same
// committed billboard as the fault-free run on the same seed, with every
// probe charged exactly once.

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/rng"
)

func chaosBase(t *testing.T) ClusterConfig {
	t.Helper()
	u, err := object.NewPlanted(object.Planted{M: 48, Good: 2}, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	return ClusterConfig{
		Universe:  u,
		Honest:    8,
		Params:    core.Params{},
		Seed:      42,
		MaxRounds: 400,
	}
}

// watchReconnects attaches a fresh metrics registry to every connection of
// cfg's run and returns a check to call after it. The check fails t unless
// the fleet's reconnect counter (metric) moved: a fault schedule that never
// forced a session resume tests nothing.
func watchReconnects(t *testing.T, cfg *ClusterConfig, metric string) (check func()) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg.Client.Metrics = reg
	return func() {
		t.Helper()
		n := reg.Snapshot()[metric]
		if n == 0 {
			t.Errorf("%s = 0: the fault schedule never forced a reconnect", metric)
		}
		t.Logf("%s = %v", metric, n)
	}
}

// assertMatchesClean pins the full equivalence bar between a run and the
// fault-free single-coordinator baseline: every player's probes and rounds,
// the server's probe ledger, and the committed billboard.
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

// TestChaosClusterMatchesFaultFree runs the same cluster twice — once clean,
// once through ≥10% fault injection (drops, delays, torn writes) — and
// requires identical outcomes: same per-player probe counts, zero
// double-charged probes, and a byte-identical final billboard digest. The
// per-player row drives the reference fleet through the same schedule:
// every honest player is a client.Client, so its session resume and
// recorded-response replay face the faults too.
func TestChaosClusterMatchesFaultFree(t *testing.T) {
	clean, err := RunCluster(chaosBase(t))
	if err != nil {
		t.Fatal(err)
	}
	if !clean.AllFound {
		t.Fatal("fault-free cluster did not finish")
	}

	for _, row := range []struct {
		name       string
		fleet      fleet
		reconnects string
	}{
		{"swarm", swarmFleet, "swarm_reconnects_total"},
		{"per-player", playerFleet, "client_reconnects_total"},
	} {
		t.Run(row.name, func(t *testing.T) {
			chaos := chaosBase(t)
			chaos.Chaos.Fault = &faultnet.Config{
				Seed:     7,
				Drop:     0.04,
				Delay:    0.04,
				Tear:     0.03, // 11% total injection per I/O operation
				MaxDelay: 2 * time.Millisecond,
			}
			chaos.SessionGrace = 10 * time.Second
			chaos.BarrierDeadline = 30 * time.Second // must never fire here
			chaos.Client = client.Options{
				Retries: 16, BackoffBase: time.Millisecond, BackoffMax: 20 * time.Millisecond,
				CallTimeout: 10 * time.Second,
			}
			reconnected := watchReconnects(t, &chaos, row.reconnects)
			faulty, err := runCluster(chaos, row.fleet)
			if err != nil {
				t.Fatal(err)
			}
			if !faulty.AllFound {
				t.Fatal("chaos cluster did not finish")
			}
			reconnected()

			// Same search, fault by fault: every player pays exactly what it
			// paid in the clean run…
			for i, r := range faulty.Honest {
				if r.Probes != clean.Honest[i].Probes {
					t.Errorf("player %d: %d probes under chaos, %d clean",
						i, r.Probes, clean.Honest[i].Probes)
				}
				if r.Rounds != clean.Honest[i].Rounds {
					t.Errorf("player %d: halted in round %d under chaos, %d clean",
						i, r.Rounds, clean.Honest[i].Rounds)
				}
			}
			// …and the server's books agree with the clients': a retried
			// probe that was executed-but-unanswered must not be charged
			// twice.
			for i, r := range faulty.Honest {
				if faulty.ServerProbes[i] != r.Probes {
					t.Errorf("player %d: server charged %d probes, client performed %d (double charge)",
						i, faulty.ServerProbes[i], r.Probes)
				}
			}
			if !bytes.Equal(faulty.BoardDigest, clean.BoardDigest) {
				t.Fatalf("final billboards diverged:\nclean:\n%s\nchaos:\n%s",
					clean.BoardDigest, faulty.BoardDigest)
			}
		})
	}
}

// TestChaosBatchedRoundsExactlyOnce is the protocol-v3 regression: the whole
// round travels as one PostBatch frame (posts + barrier under a single seq
// number), so a dropped or torn frame forces the client to retry the entire
// batch — and the server's dedup must replay the recorded response instead of
// re-applying the posts. At >13% injection per I/O operation, retried batches
// are common; the run must still produce a billboard byte-identical to the
// fault-free run and charge every probe exactly once.
func TestChaosBatchedRoundsExactlyOnce(t *testing.T) {
	clean, err := RunCluster(chaosBase(t))
	if err != nil {
		t.Fatal(err)
	}

	chaos := chaosBase(t)
	chaos.Chaos.Fault = &faultnet.Config{
		Seed:     19,
		Drop:     0.06,
		Delay:    0.04,
		Tear:     0.04, // 14% total injection per I/O operation
		MaxDelay: 2 * time.Millisecond,
	}
	chaos.SessionGrace = 10 * time.Second
	chaos.BarrierDeadline = 30 * time.Second
	chaos.Client = client.Options{
		Retries: 24, BackoffBase: time.Millisecond, BackoffMax: 20 * time.Millisecond,
		CallTimeout: 10 * time.Second,
	}
	reconnected := watchReconnects(t, &chaos, "swarm_reconnects_total")
	faulty, err := RunCluster(chaos)
	if err != nil {
		t.Fatal(err)
	}
	if !faulty.AllFound {
		t.Fatal("batched chaos cluster did not finish")
	}
	reconnected()
	if !bytes.Equal(faulty.BoardDigest, clean.BoardDigest) {
		t.Fatalf("batched run diverged from fault-free billboard:\nclean:\n%s\nchaos:\n%s",
			clean.BoardDigest, faulty.BoardDigest)
	}
	// A re-applied batch would double-post votes (caught by the digest) and a
	// re-executed probe would double-charge (caught here).
	for i, r := range faulty.Honest {
		if faulty.ServerProbes[i] != r.Probes {
			t.Errorf("player %d: server charged %d probes, client performed %d (double charge)",
				i, faulty.ServerProbes[i], r.Probes)
		}
		if r.Probes != clean.Honest[i].Probes {
			t.Errorf("player %d: %d probes under chaos, %d clean", i, r.Probes, clean.Honest[i].Probes)
		}
	}
}

// TestChaosServerKillRestartMatchesFaultFree is the durability acceptance
// test: the server is torn down mid-round — every connection dropped with
// requests in flight — and restarted from its persist dir (snapshot +
// write-ahead journal). Honest players must ride through on session resume
// alone, and the run must be observably identical to the fault-free one:
// same per-player probe counts and rounds, zero double-charged probes, and
// a byte-identical final billboard digest.
func TestChaosServerKillRestartMatchesFaultFree(t *testing.T) {
	clean, err := RunCluster(chaosBase(t))
	if err != nil {
		t.Fatal(err)
	}
	if !clean.AllFound {
		t.Fatal("fault-free cluster did not finish")
	}

	crash := chaosBase(t)
	crash.PersistDir = t.TempDir()
	crash.SnapshotEvery = 3
	crash.Chaos.KillAtRound = 2
	crash.SessionGrace = 10 * time.Second
	crash.BarrierDeadline = 30 * time.Second // must never fire here
	crash.Client = client.Options{
		Retries: 24, BackoffBase: time.Millisecond, BackoffMax: 20 * time.Millisecond,
		CallTimeout: 10 * time.Second,
	}
	crash.Logf = t.Logf
	faulty, err := RunCluster(crash)
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Restarts != 1 {
		t.Fatalf("expected exactly one server restart, got %d", faulty.Restarts)
	}
	if !faulty.AllFound {
		t.Fatal("cluster did not finish across the server restart")
	}

	for i, r := range faulty.Honest {
		if r.Probes != clean.Honest[i].Probes {
			t.Errorf("player %d: %d probes across restart, %d clean", i, r.Probes, clean.Honest[i].Probes)
		}
		if r.Rounds != clean.Honest[i].Rounds {
			t.Errorf("player %d: halted in round %d across restart, %d clean",
				i, r.Rounds, clean.Honest[i].Rounds)
		}
		// The recovered probe ledger must agree with the clients' books: a
		// probe retried across the crash is charged exactly once.
		if faulty.ServerProbes[i] != r.Probes {
			t.Errorf("player %d: recovered server charged %d probes, client performed %d (double charge)",
				i, faulty.ServerProbes[i], r.Probes)
		}
	}
	if !bytes.Equal(faulty.BoardDigest, clean.BoardDigest) {
		t.Fatalf("billboard diverged across server restart:\nclean:\n%s\nrestarted:\n%s",
			clean.BoardDigest, faulty.BoardDigest)
	}
}

// TestChaosKillRestartUnderFaultInjection layers the server crash on top of
// transport fault injection: drops, delays, and torn writes before, during,
// and after the restart window. Recovery composes with the retry machinery —
// the digest and the exactly-once ledger still match the fault-free run.
func TestChaosKillRestartUnderFaultInjection(t *testing.T) {
	clean, err := RunCluster(chaosBase(t))
	if err != nil {
		t.Fatal(err)
	}

	crash := chaosBase(t)
	crash.PersistDir = t.TempDir()
	crash.SnapshotEvery = 2
	crash.Chaos.KillAtRound = 3
	crash.Chaos.Fault = &faultnet.Config{
		Seed:     23,
		Drop:     0.03,
		Delay:    0.03,
		Tear:     0.02,
		MaxDelay: 2 * time.Millisecond,
	}
	crash.SessionGrace = 10 * time.Second
	crash.BarrierDeadline = 30 * time.Second
	crash.Client = client.Options{
		Retries: 32, BackoffBase: time.Millisecond, BackoffMax: 20 * time.Millisecond,
		CallTimeout: 10 * time.Second,
	}
	crash.Logf = t.Logf
	reconnected := watchReconnects(t, &crash, "swarm_reconnects_total")
	faulty, err := RunCluster(crash)
	if err != nil {
		t.Fatal(err)
	}
	if !faulty.AllFound {
		t.Fatal("cluster did not finish across restart + fault injection")
	}
	reconnected()
	if !bytes.Equal(faulty.BoardDigest, clean.BoardDigest) {
		t.Fatalf("billboard diverged across restart under fault injection:\nclean:\n%s\nfaulty:\n%s",
			clean.BoardDigest, faulty.BoardDigest)
	}
	for i, r := range faulty.Honest {
		if faulty.ServerProbes[i] != r.Probes {
			t.Errorf("player %d: recovered server charged %d probes, client performed %d",
				i, faulty.ServerProbes[i], r.Probes)
		}
		if r.Probes != clean.Honest[i].Probes {
			t.Errorf("player %d: %d probes, %d clean", i, r.Probes, clean.Honest[i].Probes)
		}
	}
}

// TestChaosDeterministicReplay: the same chaos seed reproduces the same run
// bit for bit — the debugging contract for failure investigation.
func TestChaosDeterministicReplay(t *testing.T) {
	run := func() *ClusterResult {
		cfg := chaosBase(t)
		cfg.Chaos.Fault = &faultnet.Config{Seed: 3, Drop: 0.05, Tear: 0.05}
		cfg.SessionGrace = 10 * time.Second
		cfg.Client = client.Options{
			Retries: 16, BackoffBase: time.Millisecond, BackoffMax: 20 * time.Millisecond,
		}
		reconnected := watchReconnects(t, &cfg, "swarm_reconnects_total")
		res, err := RunCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		reconnected()
		return res
	}
	a, b := run(), run()
	if !bytes.Equal(a.BoardDigest, b.BoardDigest) {
		t.Fatal("same chaos seed produced different billboards")
	}
	for i := range a.Honest {
		if a.Honest[i].Probes != b.Honest[i].Probes {
			t.Fatalf("player %d: %d vs %d probes across identical runs",
				i, a.Honest[i].Probes, b.Honest[i].Probes)
		}
	}
}

// TestChaosPartitionRecovery adds one-way partitions — writes silently
// swallowed — so progress depends on per-call deadlines detecting the black
// hole and the retry path resuming the session.
func TestChaosPartitionRecovery(t *testing.T) {
	u, err := object.NewPlanted(object.Planted{M: 24, Good: 2}, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	cfg := ClusterConfig{
		Universe:  u,
		Honest:    4,
		Seed:      5,
		MaxRounds: 200,
		Chaos: Chaos{Fault: &faultnet.Config{
			Seed:      21,
			Drop:      0.04,
			Partition: 0.04,
			MaxDelay:  time.Millisecond,
		}},
		SessionGrace:    10 * time.Second,
		BarrierDeadline: 30 * time.Second,
		Client: client.Options{
			Retries: 24, BackoffBase: time.Millisecond, BackoffMax: 10 * time.Millisecond,
			CallTimeout:    250 * time.Millisecond, // detects swallowed requests
			BarrierTimeout: time.Second,
		},
	}
	reconnected := watchReconnects(t, &cfg, "swarm_reconnects_total")
	res, err := RunCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllFound {
		t.Fatal("cluster did not survive partitions")
	}
	reconnected()
	for i, r := range res.Honest {
		if res.ServerProbes[i] != r.Probes {
			t.Errorf("player %d: server charged %d, client performed %d",
				i, res.ServerProbes[i], r.Probes)
		}
	}
}
