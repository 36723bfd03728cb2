package dist

// Open-world swarm tests: Drive.Dynamics injects arrivals and departures at
// round boundaries, purely driver-side. The acceptance bar is determinism —
// the same (schedule, seed) must commit a byte-identical billboard digest
// across runs, regardless of connection scheduling — plus the barrier
// liveness property that a group with zero ACTIVE members but registered
// spectators still paces the round.

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/server"
)

// rampDynamics arrives players one per round in id order until all are in,
// and departs listed players at fixed rounds.
type rampDynamics struct {
	n       int         // players 0..n-1 arrive at rounds 0..n-1
	departs map[int]int // player -> departure round
}

func (d *rampDynamics) BeginRound(round int, active []int) (arrive, depart []int) {
	if round < d.n {
		arrive = []int{round}
	}
	for p, r := range d.departs {
		if r == round {
			depart = append(depart, p)
		}
	}
	return arrive, depart
}

func (d *rampDynamics) EndRound(round int) error { return nil }
func (d *rampDynamics) Idle(round int) bool      { return round >= d.n }

func TestSwarmDynamicsDeterministicDigest(t *testing.T) {
	run := func() *ClusterResult {
		cfg := chaosBase(t)
		cfg.Drive.SwarmGroups = 3 // uneven split: groups go empty at times
		cfg.Drive.Dynamics = &rampDynamics{n: 8, departs: map[int]int{2: 4, 5: 6}}
		res, err := RunCluster(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !bytes.Equal(a.BoardDigest, b.BoardDigest) {
		t.Fatalf("open-world swarm digest not reproducible:\n a %x\n b %x", a.BoardDigest, b.BoardDigest)
	}
	for i := range a.Honest {
		if *a.Honest[i] != *b.Honest[i] {
			t.Fatalf("player %d results differ across identical runs: %+v vs %+v",
				i, a.Honest[i], b.Honest[i])
		}
	}
}

// TestSwarmDynamicsDepartedPlayersStopProbing runs the same departure
// schedule against a single coordinator and a 3-replica group: departed
// players stop probing, and ClusterResult counts them on either topology.
func TestSwarmDynamicsDepartedPlayersStopProbing(t *testing.T) {
	for _, replicas := range []int{0, 3} {
		t.Run(fmt.Sprintf("replicas-%d", replicas), func(t *testing.T) {
			cfg := chaosBase(t)
			cfg.MaxRounds = 6
			cfg.Drive.SwarmGroups = 2
			// Players 0 and 1 (arrivals at rounds 0 and 1) depart after one
			// round of play each; the rest ride to found/timeout.
			cfg.Drive.Dynamics = &rampDynamics{n: 8, departs: map[int]int{0: 1, 1: 2}}
			if replicas > 1 {
				cfg.Topology.Replicas = replicas
				cfg.PersistDir = t.TempDir()
				cfg.SessionGrace = 10 * time.Second
				cfg.Client = replicaClientOpts()
			}
			res, err := RunCluster(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Departed != 2 {
				t.Fatalf("Departed = %d, want 2", res.Departed)
			}
			for p, wantRound := range map[int]int{0: 1, 1: 2} {
				hr := res.Honest[p]
				if !hr.Departed {
					t.Fatalf("player %d not marked departed: %+v", p, hr)
				}
				if hr.Found || hr.TimedOut {
					t.Fatalf("departed player %d also found/timed out: %+v", p, hr)
				}
				if hr.Rounds != wantRound {
					t.Fatalf("departed player %d played to round %d, want %d", p, hr.Rounds, wantRound)
				}
				if hr.Probes > 1 {
					t.Fatalf("departed player %d made %d probes in one round of play", p, hr.Probes)
				}
			}
			if res.AllFound {
				t.Fatal("AllFound despite departures")
			}
		})
	}
}

// TestSwarmDynamicsEmptyGroupPacesBarrier pins the liveness fix: with a
// late-arrival schedule, some groups hold zero active members for the first
// rounds while other groups' players probe — the empty groups must still
// arrive their barriers or the cluster deadlocks. A completed run IS the
// assertion (a regression hangs and trips the test timeout).
func TestSwarmDynamicsEmptyGroupPacesBarrier(t *testing.T) {
	cfg := chaosBase(t)
	cfg.Drive.SwarmGroups = 4
	// Player 0 (group 0) arrives alone at round 0; groups 1-3 stay
	// spectator-only until rounds 2, 4, 6 bring their first members.
	cfg.Drive.Dynamics = &rampDynamics{n: 8}
	res, err := RunCluster(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Departed != 0 {
		t.Fatalf("unexpected departures: %d", res.Departed)
	}
}

func TestSwarmDynamicsEpochMode(t *testing.T) {
	run := func() *ClusterResult {
		cfg := chaosBase(t)
		cfg.Mode = server.ModeEpoch
		cfg.Drive.SwarmGroups = 2
		cfg.Drive.Dynamics = &rampDynamics{n: 8, departs: map[int]int{3: 5}}
		res, err := RunCluster(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !bytes.Equal(a.BoardDigest, b.BoardDigest) {
		t.Fatalf("epoch-mode open-world digest not reproducible:\n a %x\n b %x", a.BoardDigest, b.BoardDigest)
	}
}
