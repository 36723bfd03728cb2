package core

import (
	"math"
	"testing"

	"repro/internal/billboard"
	"repro/internal/object"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

func TestNoLocalTestingPrescribedRounds(t *testing.T) {
	d := NewNoLocalTesting(Params{}, 6)
	u, err := object.NewTopBeta(256, 0.05, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.NewEngine(sim.Config{
		Universe: u, Protocol: d, N: 256, Alpha: 0.75, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	logN := math.Log2(256.0)
	// The engine passes the universe's realized β (12/256 here, since
	// floor(0.05·256) = 12), not the nominal 0.05.
	want := int(math.Ceil(6 * (logN/(0.75*u.Beta()*256) + logN/0.75)))
	if res.Rounds != want {
		t.Fatalf("prescribed rounds = %d, want %d", res.Rounds, want)
	}
	if d.PrescribedRounds() != want {
		t.Fatalf("PrescribedRounds() = %d, want %d", d.PrescribedRounds(), want)
	}
}

func TestNoLocalTestingFindsTopBeta(t *testing.T) {
	results, err := sim.Replicator{
		Reps:     10,
		BaseSeed: 31,
		Build: func(seed uint64) (*sim.Engine, error) {
			u, err := object.NewTopBeta(512, 0.02, rng.New(seed))
			if err != nil {
				return nil, err
			}
			return sim.NewEngine(sim.Config{
				Universe: u, Protocol: NewNoLocalTesting(Params{}, 0), N: 512,
				Alpha: 0.8, Seed: seed,
			})
		},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	agg := sim.AggregateResults(results)
	if agg.SuccessRate < 0.95 {
		t.Fatalf("no-local-testing success rate %v < 0.95", agg.SuccessRate)
	}
}

func TestNoLocalTestingSingleGoodObject(t *testing.T) {
	// β = 1/m: searching for the unique maximum-value object (§2.2).
	results, err := sim.Replicator{
		Reps:     8,
		BaseSeed: 37,
		Build: func(seed uint64) (*sim.Engine, error) {
			u, err := object.NewTopBeta(128, 1.0/128, rng.New(seed))
			if err != nil {
				return nil, err
			}
			return sim.NewEngine(sim.Config{
				Universe: u, Protocol: NewNoLocalTesting(Params{}, 0), N: 128,
				Alpha: 0.9, Seed: seed,
			})
		},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	agg := sim.AggregateResults(results)
	if agg.SuccessRate < 0.9 {
		t.Fatalf("max-search success rate %v", agg.SuccessRate)
	}
}

func TestAlphaGuessInitValidation(t *testing.T) {
	g := NewAlphaGuess(Params{}, 4)
	u, err := object.NewTopBeta(16, 0.25, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Init(sim.Setup{N: 16, Alpha: 0.5, Beta: 0, Universe: u, Rng: rng.New(1)}); err == nil {
		t.Fatal("beta 0 accepted")
	}
}

func TestAlphaGuessPhasesAdvance(t *testing.T) {
	// With a tiny per-phase budget the wrapper must halve α repeatedly.
	g := NewAlphaGuess(Params{}, 0.001)
	u, err := object.NewUniverse(object.Config{
		Values: goodAt(16, 15), LocalTesting: true, Threshold: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	board := mustTestBoard(t, 16, 16)
	if err := g.Init(sim.Setup{
		N: 16, Alpha: 1, Beta: 1.0 / 16, Universe: u, Board: board, Rng: rng.New(2),
	}); err != nil {
		t.Fatal(err)
	}
	if g.Phase() != 0 {
		t.Fatalf("initial phase = %d", g.Phase())
	}
	for round := 0; round < 100; round++ {
		g.Probes(round, nil, nil)
		board.EndRound()
	}
	if g.Phase() == 0 {
		t.Fatal("phase never advanced")
	}
	maxPhase := int(math.Ceil(math.Log2(16)))
	if g.Phase() > maxPhase {
		t.Fatalf("phase %d exceeded max %d", g.Phase(), maxPhase)
	}
}

func TestAlphaGuessSolvesUnknownAlpha(t *testing.T) {
	// True α = 0.5; the protocol is given a nonsense assumed α (1.0, via
	// AssumedAlpha) that it must ignore.
	results, err := sim.Replicator{
		Reps:     8,
		BaseSeed: 41,
		Build: func(seed uint64) (*sim.Engine, error) {
			u, err := object.NewPlanted(object.Planted{M: 256, Good: 1}, rng.New(seed))
			if err != nil {
				return nil, err
			}
			return sim.NewEngine(sim.Config{
				Universe: u, Protocol: NewAlphaGuess(Params{}, 0), N: 256,
				Alpha: 0.5, AssumedAlpha: 1, Seed: seed, MaxRounds: 50000,
			})
		},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	agg := sim.AggregateResults(results)
	if agg.SuccessRate != 1 || agg.TimedOut > 0 {
		t.Fatalf("alphaguess: success %v timeouts %d", agg.SuccessRate, agg.TimedOut)
	}
}

func TestAlphaGuessOverheadBounded(t *testing.T) {
	// Knowing α exactly vs guessing it: guessing should cost at most a
	// small multiple (the §5.1 claim is "at most twice the last phase").
	// proto builds a fresh protocol per replication: protocols are
	// stateful, and the replications run in parallel.
	run := func(proto func() sim.Protocol, assumed float64) float64 {
		results, err := sim.Replicator{
			Reps:     10,
			BaseSeed: 43,
			Build: func(seed uint64) (*sim.Engine, error) {
				u, err := object.NewPlanted(object.Planted{M: 256, Good: 1}, rng.New(seed))
				if err != nil {
					return nil, err
				}
				return sim.NewEngine(sim.Config{
					Universe: u, Protocol: proto(), N: 256, Alpha: 0.5,
					AssumedAlpha: assumed, Seed: seed, MaxRounds: 50000,
				})
			},
		}.Run()
		if err != nil {
			t.Fatal(err)
		}
		return sim.AggregateResults(results).MeanRounds
	}
	known := run(func() sim.Protocol { return NewDistillHP(Params{}) }, 0.5)
	guessed := run(func() sim.Protocol { return NewAlphaGuess(Params{}, 0) }, 1)
	t.Logf("known-α %.1f rounds, guessed-α %.1f rounds", known, guessed)
	if guessed > 20*known+50 {
		t.Fatalf("alpha guessing overhead too large: %.1f vs %.1f", guessed, known)
	}
}

func TestCostClassesInitValidation(t *testing.T) {
	c := NewCostClasses(Params{}, 4)
	u, err := object.NewUniverse(object.Config{
		Values:       []float64{1, 0},
		Costs:        []float64{0.5, 1},
		LocalTesting: true,
		Threshold:    0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	board := mustTestBoard(t, 4, 2)
	err = c.Init(sim.Setup{N: 4, Alpha: 1, Beta: 0.5, Universe: u, Board: board, Rng: rng.New(1)})
	if err == nil {
		t.Fatal("cost < 1 accepted")
	}
	if err := c.Init(sim.Setup{N: 4, Alpha: 0, Beta: 0.5, Universe: u, Board: board, Rng: rng.New(1)}); err == nil {
		t.Fatal("alpha 0 accepted")
	}
}

func TestCostClassesSearchesCheapFirst(t *testing.T) {
	// Two-tier universe: a cheap good object (cost 1) and expensive good
	// objects (cost 64). Honest players must find the cheap one paying a
	// total far below the expensive tier.
	results, err := sim.Replicator{
		Reps:     8,
		BaseSeed: 47,
		Build: func(seed uint64) (*sim.Engine, error) {
			src := rng.New(seed)
			const m = 256
			costs := make([]float64, m)
			values := make([]float64, m)
			for i := range costs {
				costs[i] = 64
			}
			// Cheap tier: objects 0..63 cost 1; one of them is good.
			for i := 0; i < 64; i++ {
				costs[i] = 1
			}
			values[src.Intn(64)] = 1
			// Also one expensive good object.
			values[64+src.Intn(m-64)] = 1
			u, err := object.NewUniverse(object.Config{
				Values: values, Costs: costs, LocalTesting: true, Threshold: 0.5,
			})
			if err != nil {
				return nil, err
			}
			return sim.NewEngine(sim.Config{
				Universe: u, Protocol: NewCostClasses(Params{}, 0), N: 128,
				Alpha: 0.75, Seed: seed, MaxRounds: 100000,
			})
		},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	agg := sim.AggregateResults(results)
	if agg.SuccessRate != 1 || agg.TimedOut > 0 {
		t.Fatalf("cost classes: success %v timeouts %d", agg.SuccessRate, agg.TimedOut)
	}
	// Mean cost per player must be well below the cost of even one
	// expensive probe (64): players should finish inside the cheap class.
	if agg.MeanIndividualCost >= 64 {
		t.Fatalf("mean cost %v: players probed the expensive tier", agg.MeanIndividualCost)
	}
	t.Logf("mean individual cost %.1f (cheapest good costs 1)", agg.MeanIndividualCost)
}

func TestCostClassesClassIndexAdvances(t *testing.T) {
	// Universe whose only good object is expensive: the wrapper must leave
	// class 0 and advance.
	u, err := object.NewUniverse(object.Config{
		Values:       []float64{0, 0, 0, 1},
		Costs:        []float64{1, 1, 1, 8},
		LocalTesting: true,
		Threshold:    0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCostClasses(Params{}, 0.5)
	e, err := sim.NewEngine(sim.Config{
		Universe: u, Protocol: c, N: 8, Alpha: 1, Seed: 3, MaxRounds: 10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllHonestSatisfied() {
		t.Fatal("did not find the expensive good object")
	}
	if c.ClassIndex() != 1 {
		t.Fatalf("final class index = %d, want 1 (the class of cost 8)", c.ClassIndex())
	}
}

func TestThreePhaseSuccessWithSqrtNDishonest(t *testing.T) {
	// The §1.2 setting: m = n, √n dishonest players, one good object. The
	// three-phase algorithm succeeds with constant probability; measured
	// over replications the success rate should be clearly positive, and
	// with the spam adversary it should still not collapse.
	const n = 1024
	dishonest := int(math.Sqrt(float64(n)))
	results, err := sim.Replicator{
		Reps:     30,
		BaseSeed: 53,
		Build: func(seed uint64) (*sim.Engine, error) {
			u, err := object.NewPlanted(object.Planted{M: n, Good: 1}, rng.New(seed))
			if err != nil {
				return nil, err
			}
			honest := make([]int, 0, n-dishonest)
			for p := dishonest; p < n; p++ {
				honest = append(honest, p)
			}
			return sim.NewEngine(sim.Config{
				Universe: u, Protocol: NewThreePhase(), N: n, Honest: honest,
				Seed: seed,
			})
		},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	var successes []float64
	for _, r := range results {
		successes = append(successes, r.SuccessFraction())
		if r.Rounds > 7 {
			t.Fatalf("three-phase ran %d rounds, prescribed max is 7", r.Rounds)
		}
	}
	if mean := stats.Mean(successes); mean < 0.5 {
		t.Fatalf("three-phase mean success fraction %v < 0.5", mean)
	}
}

func TestThreePhasePrescribedLength(t *testing.T) {
	p := NewThreePhase()
	u, err := object.NewPlanted(object.Planted{M: 64, Good: 1}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.NewEngine(sim.Config{
		Universe: u, Protocol: p, N: 64, Alpha: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 7 {
		t.Fatalf("rounds = %d, want 7", res.Rounds)
	}
}

func mustTestBoard(t *testing.T, players, objects int) *billboard.Board {
	t.Helper()
	b, err := billboard.New(billboard.Config{Players: players, Objects: objects})
	if err != nil {
		t.Fatal(err)
	}
	return b
}
