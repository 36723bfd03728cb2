package scenario

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/rng"
)

func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse([]byte(`{"name":"x","players":4,"world":{"objects":8,"good":1},"playrs":3}`))
	if err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	base := func() *Spec {
		return &Spec{Name: "t", Players: 8, World: World{Objects: 16, Good: 2}}
	}
	cases := []struct {
		label string
		mut   func(*Spec)
	}{
		{"no name", func(s *Spec) { s.Name = "" }},
		{"bad backend", func(s *Spec) { s.Backend = "cloud" }},
		{"epoch on engine", func(s *Spec) { s.Mode = ModeEpoch }},
		{"no players", func(s *Spec) { s.Players = 0 }},
		{"all byzantine", func(s *Spec) { s.Byzantine = 8 }},
		{"no objects", func(s *Spec) { s.World.Objects = 0 }},
		{"good too big", func(s *Spec) { s.World.Good = 17 }},
		{"unbounded poisson arrivals", func(s *Spec) { s.Arrivals = &Process{Kind: "poisson", Rate: 1, From: 3, Until: 1} }},
		{"unknown process", func(s *Spec) { s.Arrivals = &Process{Kind: "fractal"} }},
		{"burst mismatched", func(s *Spec) { s.Arrivals = &Process{Kind: "burst", At: []int{0, 1}, Size: []int{2}} }},
		{"trace out of order", func(s *Spec) {
			s.Arrivals = &Process{Kind: "trace", Trace: []TraceEvent{{Round: 3, Count: 1}, {Round: 1, Count: 1}}}
		}},
		{"trace count and players", func(s *Spec) {
			s.Arrivals = &Process{Kind: "trace", Trace: []TraceEvent{{Round: 0, Count: 1, Players: []int{0}}}}
		}},
		{"trace player outside pool", func(s *Spec) {
			s.Arrivals = &Process{Kind: "trace", Trace: []TraceEvent{{Round: 0, Players: []int{8}}}}
		}},
		{"drift on cluster", func(s *Spec) {
			s.Backend = BackendCluster
			s.Drift = &Drift{Every: 4, Zipf: 1}
		}},
		{"campaign on cluster", func(s *Spec) {
			s.Backend = BackendCluster
			s.Byzantine = 2
			s.Campaign = []Phase{{From: 0, Strategy: "silent"}}
		}},
		{"campaign without byzantine", func(s *Spec) { s.Campaign = []Phase{{From: 0, Strategy: "silent"}} }},
		{"campaign not from 0", func(s *Spec) {
			s.Byzantine = 2
			s.Campaign = []Phase{{From: 3, Strategy: "silent"}}
		}},
		{"campaign unsorted", func(s *Spec) {
			s.Byzantine = 2
			s.Campaign = []Phase{{From: 0, Strategy: "silent"}, {From: 5, Strategy: "slander"}, {From: 2, Strategy: "collude"}}
		}},
	}
	for _, tc := range cases {
		s := base()
		tc.mut(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: validated", tc.label)
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base spec rejected: %v", err)
	}
}

func TestBuiltinsValidateAndRun(t *testing.T) {
	for _, name := range Names() {
		s, err := Builtin(name)
		if err != nil {
			t.Fatalf("builtin %s: %v", name, err)
		}
		if s.Backend == BackendCluster {
			continue // cluster builtins run in the dist-backed tests below
		}
		res, err := Run(context.Background(), s, Options{Seed: 7})
		if err != nil {
			t.Fatalf("builtin %s: %v", name, err)
		}
		if len(res.Digest) == 0 {
			t.Fatalf("builtin %s: empty digest", name)
		}
		if res.Rounds == 0 {
			t.Fatalf("builtin %s: zero rounds", name)
		}
	}
	if _, err := Builtin("no-such"); err == nil {
		t.Fatal("unknown builtin accepted")
	}
}

// TestEngineReplayDeterministic pins the replay contract on the engine
// backend: same (spec, seed) → byte-identical digest; different seed →
// (overwhelmingly) a different one.
func TestEngineReplayDeterministic(t *testing.T) {
	for _, name := range []string{"open-world", "popularity-drift", "adversary-switch", "flash-crowd"} {
		run := func(seed uint64) *Result {
			s, err := Builtin(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(context.Background(), s, Options{Seed: seed})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return res
		}
		a, b := run(41), run(41)
		if !bytes.Equal(a.Digest, b.Digest) {
			t.Fatalf("%s: replay digest mismatch", name)
		}
		if a.Rounds != b.Rounds || a.Found != b.Found || a.Departed != b.Departed {
			t.Fatalf("%s: replay counters differ: %+v vs %+v", name, a, b)
		}
		if c := run(42); bytes.Equal(a.Digest, c.Digest) {
			t.Fatalf("%s: seeds 41 and 42 produced identical digests", name)
		}
	}
}

// TestClusterReplayDeterministic pins the replay contract on the cluster
// backend, in both server modes: the digest of the committed billboard is a
// function of (spec, seed) alone, even though the run crosses real
// connections and a concurrent event-loop fleet.
func TestClusterReplayDeterministic(t *testing.T) {
	for _, mode := range []string{ModeSync, ModeEpoch} {
		run := func() *Result {
			s, err := Builtin("cluster-churn")
			if err != nil {
				t.Fatal(err)
			}
			s.Mode = mode
			res, err := Run(context.Background(), s, Options{Seed: 99})
			if err != nil {
				t.Fatalf("mode %s: %v", mode, err)
			}
			return res
		}
		a, b := run(), run()
		if len(a.Digest) == 0 {
			t.Fatalf("mode %s: empty digest", mode)
		}
		if !bytes.Equal(a.Digest, b.Digest) {
			t.Fatalf("mode %s: replay digest mismatch", mode)
		}
		if a.Found != b.Found || a.Departed != b.Departed || a.TimedOut != b.TimedOut {
			t.Fatalf("mode %s: replay counters differ", mode)
		}
	}
}

// TestClusterRunHonorsContext cancels a cluster-backed run, Byzantine
// clients included, from its Logf at the first swarm round line: the run
// must end with context.Canceled within a few seconds and leave no
// goroutine behind.
func TestClusterRunHonorsContext(t *testing.T) {
	s, err := Builtin("cluster-churn")
	if err != nil {
		t.Fatal(err)
	}
	s.Byzantine = 2
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	logf := func(format string, args ...any) {
		if strings.HasPrefix(format, "swarm: round ") {
			once.Do(cancel)
		}
	}
	before := runtime.NumGoroutine()
	start := time.Now()
	_, err = Run(ctx, s, Options{Seed: 99, Logf: logf})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("the canceled run took %v", elapsed)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines 2s after Run returned, %d before it started:\n%s",
				runtime.NumGoroutine(), before, buf)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestProcessIndependence is the partition property surfaced at spec level:
// adding a departure process must not change which players arrive when.
func TestProcessIndependence(t *testing.T) {
	arrivalTrace := func(withDepartures bool) [][]int {
		s := &Spec{
			Name:      "t",
			Players:   24,
			MaxRounds: 64,
			World:     World{Objects: 64, Good: 2},
			Arrivals:  &Process{Kind: "poisson", Rate: 2, Until: 8},
		}
		if withDepartures {
			s.Departures = &Process{Kind: "poisson", Rate: 1, From: 1}
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		part := rng.NewPartition(9)
		d := newDynamics(s, part, nil)
		var rounds [][]int
		for r := 0; r <= 8; r++ {
			arr := d.arrivals(r)
			rounds = append(rounds, arr)
			if withDepartures {
				// Interleave departure draws to prove they cannot bleed
				// into the arrival stream.
				d.departures(r, arr)
			}
		}
		return rounds
	}
	plain := arrivalTrace(false)
	mixed := arrivalTrace(true)
	for r := range plain {
		if len(plain[r]) != len(mixed[r]) {
			t.Fatalf("round %d: arrivals changed when departures were added: %v vs %v", r, plain[r], mixed[r])
		}
		for i := range plain[r] {
			if plain[r][i] != mixed[r][i] {
				t.Fatalf("round %d: arrivals changed when departures were added", r)
			}
		}
	}
}

func TestCampaignSwitchesStrategy(t *testing.T) {
	s, err := Builtin("adversary-switch")
	if err != nil {
		t.Fatal(err)
	}
	// A campaign starting silent then attacking must cost honest players
	// no less than an all-silent run on the same seed (the attack can only
	// slow the search down); primarily this exercises the phase handover.
	res, err := Run(context.Background(), s, Options{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	silent := &Spec{
		Name: "all-silent", Players: s.Players, Byzantine: s.Byzantine,
		MaxRounds: s.MaxRounds, World: s.World,
		Campaign: []Phase{{From: 0, Strategy: "silent"}},
	}
	sres, err := Run(context.Background(), silent, Options{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(res.Digest, sres.Digest) {
		t.Fatal("campaign with attack phases left the board identical to all-silent")
	}
}

func TestTraceReplayExactPlayers(t *testing.T) {
	s := &Spec{
		Name:      "trace",
		Players:   8,
		MaxRounds: 32,
		World:     World{Objects: 512, Good: 1},
		Arrivals: &Process{Kind: "trace", Trace: []TraceEvent{
			{Round: 0, Players: []int{3, 5}},
			{Round: 2, Players: []int{0}},
		}},
		Departures: &Process{Kind: "trace", Trace: []TraceEvent{
			{Round: 4, Players: []int{5, 7}}, // 7 never arrived: skipped
		}},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), s, Options{Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	er := res.Engine
	if er.DepartedRound[5] != 4 {
		t.Fatalf("player 5 departure round = %d, want 4", er.DepartedRound[5])
	}
	if er.DepartedRound[7] != -1 {
		t.Fatalf("player 7 (never arrived) marked departed")
	}
	if er.Probes[1] != 0 || er.Probes[2] != 0 {
		t.Fatalf("players outside the trace probed: %v", er.Probes)
	}
	if er.Probes[3] == 0 {
		t.Fatalf("traced player 3 never probed")
	}
}
