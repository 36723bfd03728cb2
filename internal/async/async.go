// Package async implements the asynchronous execution model of the
// authors' prior work [1], which §1.2 of this paper contrasts with: a basic
// step is a single player reading the billboard, probing one object, and
// posting the result, and the *schedule* of player steps is under the
// control of the adversary.
//
// The paper's motivation for moving to the synchronous model is that no
// algorithm can bound the INDIVIDUAL cost here: "a schedule that runs a
// single player by itself forces that player to find the good object on
// its own without any assistance from any other player". The X1 experiment
// reproduces exactly that separation: under a fair round-robin schedule the
// explore/follow algorithm of [1] is cheap for everyone, while under a
// starvation schedule the victim pays Θ(1/β) — the cost of searching alone.
package async

import (
	"errors"
	"fmt"

	"repro/internal/billboard"
	"repro/internal/object"
	"repro/internal/rng"
)

// ErrBadSchedule reports an adversarial Schedule stepping outside the rules:
// a player index out of [0, N) or a player that already halted. The schedule
// is attacker-controlled input, so the engine validates rather than trusting
// it (an out-of-range pick previously indexed Satisfied before the bounds
// check and panicked).
var ErrBadSchedule = errors.New("async: invalid schedule pick")

// Strategy is an honest player's per-step policy in the asynchronous model.
// Implementations must be safe to share across players (the engine passes
// the acting player id).
type Strategy interface {
	// Name identifies the strategy in reports.
	Name() string
	// Probe chooses the object the acting player probes at its step, given
	// the current billboard. ok = false passes the step (no probe).
	Probe(player int, board *billboard.Board, src *rng.Source) (obj int, ok bool)
}

// Schedule decides which player takes the next step. The adversary controls
// it (§1.1 of the paper's prior-work model), so implementations may inspect
// progress to starve whoever they like.
type Schedule interface {
	// Name identifies the schedule in reports.
	Name() string
	// Next picks the acting player among the still-active players.
	// active is non-empty and sorted ascending.
	Next(step int, active []int, src *rng.Source) int
}

// Config describes one asynchronous run. All players are honest here: the
// point of this substrate is schedule adversarility, which is orthogonal to
// Byzantine reports (covered by the synchronous engine).
type Config struct {
	Universe *object.Universe
	Strategy Strategy
	Schedule Schedule
	N        int
	Seed     uint64
	// MaxSteps caps the run; 0 means 1 << 24.
	MaxSteps int
}

// Result reports per-player probe counts and completion.
type Result struct {
	Strategy string
	Schedule string
	Steps    int
	TimedOut bool
	// Probes[p] counts probes by player p.
	Probes []int
	// Satisfied[p] reports whether player p found a good object.
	Satisfied []bool
}

// Run executes the asynchronous simulation: one player step at a time, with
// posts visible to all subsequent steps immediately (each step is its own
// billboard round, so timestamps are step indices).
func Run(cfg Config) (*Result, error) {
	if cfg.Universe == nil || cfg.Strategy == nil || cfg.Schedule == nil {
		return nil, fmt.Errorf("async: Universe, Strategy and Schedule are required")
	}
	if cfg.N <= 0 {
		return nil, fmt.Errorf("async: N must be > 0, got %d", cfg.N)
	}
	if !cfg.Universe.LocalTesting() {
		return nil, fmt.Errorf("async: this substrate models the local-testing search of [1]")
	}
	maxSteps := cfg.MaxSteps
	if maxSteps == 0 {
		maxSteps = 1 << 24
	}
	board, err := billboard.New(billboard.Config{
		Players: cfg.N,
		Objects: cfg.Universe.M(),
	})
	if err != nil {
		return nil, fmt.Errorf("async: %w", err)
	}
	master := rng.New(cfg.Seed)
	stratRng := master.Split(1)
	schedRng := master.Split(2)

	res := &Result{
		Strategy:  cfg.Strategy.Name(),
		Schedule:  cfg.Schedule.Name(),
		Probes:    make([]int, cfg.N),
		Satisfied: make([]bool, cfg.N),
	}
	active := make([]int, cfg.N)
	for p := range active {
		active[p] = p
	}

	step := 0
	for len(active) > 0 {
		if step >= maxSteps {
			res.TimedOut = true
			break
		}
		p := cfg.Schedule.Next(step, active, schedRng)
		if p < 0 || p >= cfg.N {
			return nil, fmt.Errorf("%w: schedule %q picked out-of-range player %d at step %d",
				ErrBadSchedule, cfg.Schedule.Name(), p, step)
		}
		if res.Satisfied[p] {
			return nil, fmt.Errorf("%w: schedule %q picked halted player %d at step %d",
				ErrBadSchedule, cfg.Schedule.Name(), p, step)
		}
		if obj, ok := cfg.Strategy.Probe(p, board, stratRng); ok {
			if obj < 0 || obj >= cfg.Universe.M() {
				return nil, fmt.Errorf("async: strategy %q probe out of range: %d", cfg.Strategy.Name(), obj)
			}
			res.Probes[p]++
			good := cfg.Universe.IsGood(obj)
			if err := board.Post(billboard.Post{
				Player: p, Object: obj, Value: cfg.Universe.Value(obj), Positive: good,
			}); err != nil {
				return nil, fmt.Errorf("async: %w", err)
			}
			if good {
				res.Satisfied[p] = true
				keep := active[:0]
				for _, q := range active {
					if q != p {
						keep = append(keep, q)
					}
				}
				active = keep
			}
		}
		// A step is an atomic read-probe-post: commit immediately.
		board.EndRound()
		step++
	}
	res.Steps = step
	return res, nil
}

// ExploreFollow is the algorithm of [1] as this paper describes it: at each
// step flip a fair coin and either probe a uniformly random object or probe
// the vote of a uniformly random player (if any).
type ExploreFollow struct {
	M int // number of objects; set by NewExploreFollow
	N int
}

var _ Strategy = (*ExploreFollow)(nil)

// NewExploreFollow returns the [1] strategy for an n-player, m-object run.
func NewExploreFollow(n, m int) *ExploreFollow { return &ExploreFollow{M: m, N: n} }

// Name implements Strategy.
func (s *ExploreFollow) Name() string { return "explore-follow" }

// Probe implements Strategy.
func (s *ExploreFollow) Probe(player int, board *billboard.Board, src *rng.Source) (int, bool) {
	if src.Bernoulli(0.5) {
		return src.Intn(s.M), true
	}
	j := src.Intn(s.N)
	votes := board.Votes(j)
	if len(votes) == 0 {
		return 0, false
	}
	return votes[src.Intn(len(votes))].Object, true
}

// Solo probes uniformly at random, never reading the billboard — the only
// strategy whose guarantee survives starvation.
type Solo struct {
	M int
}

var _ Strategy = (*Solo)(nil)

// NewSolo returns the billboard-oblivious strategy.
func NewSolo(m int) *Solo { return &Solo{M: m} }

// Name implements Strategy.
func (s *Solo) Name() string { return "solo-random" }

// Probe implements Strategy.
func (s *Solo) Probe(player int, board *billboard.Board, src *rng.Source) (int, bool) {
	return src.Intn(s.M), true
}

// RoundRobin cycles fairly through the active players.
type RoundRobin struct{}

var _ Schedule = RoundRobin{}

// Name implements Schedule.
func (RoundRobin) Name() string { return "round-robin" }

// Next implements Schedule.
func (RoundRobin) Next(step int, active []int, _ *rng.Source) int {
	return active[step%len(active)]
}

// UniformRandom picks a uniformly random active player each step.
type UniformRandom struct{}

var _ Schedule = UniformRandom{}

// Name implements Schedule.
func (UniformRandom) Name() string { return "uniform-random" }

// Next implements Schedule.
func (UniformRandom) Next(_ int, active []int, src *rng.Source) int {
	return active[src.Intn(len(active))]
}

// Starve runs the victim player exclusively until it halts, then falls back
// to round-robin for the rest — the §1.2 schedule that forces the victim to
// search alone.
type Starve struct {
	Victim int
}

var _ Schedule = Starve{}

// Name implements Schedule.
func (Starve) Name() string { return "starve-victim" }

// Next implements Schedule.
func (s Starve) Next(step int, active []int, _ *rng.Source) int {
	for _, p := range active {
		if p == s.Victim {
			return p
		}
	}
	return active[step%len(active)]
}
