package dist

// Swarm-driver parity tests. The swarm scheduler multiplexes the whole
// honest fleet onto a few pipelined connections and shares one DISTILL
// schedule across it, but the acceptance bar is the same exactness the
// chaos suites pin: a swarm-driven run must be observably identical to the
// per-player reference fleet (playerFleet) on the same seed — per-player
// probe counts, halt rounds, the server's probe ledger, and a
// byte-identical final billboard digest.

import (
	"context"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/swarm"
)

// TestSwarmMatchesGoroutineFleet is the headline parity check on the plain
// single-coordinator path, with an uneven group split so boundary ranges
// are exercised.
func TestSwarmMatchesGoroutineFleet(t *testing.T) {
	clean, err := runCluster(context.Background(), chaosBase(t), playerFleet)
	if err != nil {
		t.Fatal(err)
	}
	if !clean.AllFound {
		t.Fatal("per-player fleet did not finish")
	}

	sw := chaosBase(t)
	sw.Drive.SwarmGroups = 3 // 8 players over 3 groups: uneven ranges
	got, err := RunCluster(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesClean(t, clean, got, "swarm")
}

// TestSwarmByzantineMix drives honest players through the swarm while
// Byzantine spammers run as classic per-player clients against the same
// barriers; the digest must match the per-player fleet with the same mix.
func TestSwarmByzantineMix(t *testing.T) {
	base := chaosBase(t)
	base.Byzantine = 2
	clean, err := runCluster(context.Background(), base, playerFleet)
	if err != nil {
		t.Fatal(err)
	}

	sw := chaosBase(t)
	sw.Byzantine = 2
	got, err := RunCluster(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesClean(t, clean, got, "swarm+byzantine")
}

// TestSwarmReplicatedMatchesSingleCoordinator runs the swarm against a
// 3-replica coordinator group: swarm journal records quorum-commit like any
// other state change, and the outcome matches the plain baseline.
func TestSwarmReplicatedMatchesSingleCoordinator(t *testing.T) {
	clean, err := RunCluster(context.Background(), chaosBase(t))
	if err != nil {
		t.Fatal(err)
	}

	sw := chaosBase(t)
	sw.Topology.Replicas = 3
	sw.PersistDir = t.TempDir()
	sw.SessionGrace = 10 * time.Second
	sw.Client = replicaClientOpts()
	got, err := RunCluster(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesClean(t, clean, got, "swarm replicated")
}

// TestSwarmOneArrivalPerGroupRound pins the swarm's pacing frame economy on
// a fault-free run, in both modes: each connection group ends each round it
// runs with exactly one arrival frame. A group runs rounds until its last
// player halts, so the server must count one epoch frame per (group, round)
// pair and no other.
func TestSwarmOneArrivalPerGroupRound(t *testing.T) {
	for _, mode := range []server.Mode{server.ModeSync, server.ModeEpoch} {
		t.Run(mode.String(), func(t *testing.T) {
			base := chaosBase(t)
			tokens, swarmToken := mintTokens(base.Seed, base.Honest)
			reg := obs.NewRegistry()
			srv, err := server.New(server.Config{
				Universe: base.Universe, Tokens: tokens, Alpha: 1, Beta: base.Universe.Beta(),
				Mode: mode, SwarmToken: swarmToken, Metrics: reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			addr, err := srv.Start("")
			if err != nil {
				t.Fatal(err)
			}
			const groups = 3 // 8 players over 3 groups: uneven ranges
			res, err := swarm.Run(context.Background(), swarm.Config{
				Addr: addr, To: base.Honest, Token: swarmToken, Params: base.Params,
				Seed: base.Seed, MaxRounds: base.MaxRounds, Groups: groups,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Found != base.Honest {
				t.Fatalf("%d of %d players found a good object", res.Found, base.Honest)
			}
			// The swarm's layout: contiguous near-equal sub-blocks.
			want := 0
			for gi := 0; gi < groups; gi++ {
				ran := 0
				for p := gi * base.Honest / groups; p < (gi+1)*base.Honest/groups; p++ {
					ran = max(ran, res.Players[p].Rounds)
				}
				want += ran
			}
			got := reg.Snapshot()[`server_requests_total{type="epoch"}`]
			if int(got) != want {
				t.Fatalf("%v fleet sent %v arrival frames, want %d (one per group per round it ran)", mode, got, want)
			}
		})
	}
}
