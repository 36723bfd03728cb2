// Package core implements the paper's primary contribution: Algorithm
// DISTILL (Figure 1) and its variants —
//
//   - Distill: the base algorithm of §4 (local testing, expected time
//     O(1/(αβn) + (1/α)·log n/Δ), Theorem 4);
//   - DISTILL^HP: k1, k2 = Θ(log n), terminating in O(log n/(αβn) + log n/α)
//     rounds with high probability (Theorem 11);
//   - NoLocalTesting: the §5.3 variant that runs for a prescribed number of
//     rounds with best-value votes (Theorem 13);
//   - AlphaGuess: the §5.1 halving wrapper for unknown α;
//   - CostClasses: the §5.2 wrapper for non-uniform object costs
//     (Theorem 12);
//   - ThreePhase: the simplified illustrative algorithm of §1.2.
//
// The protocol object is shared by all honest players: every player derives
// candidate sets from the same committed billboard, so computing them once
// per round is exactly the per-player computation of the paper, shared for
// efficiency.
package core

import (
	"fmt"
	"math"

	"repro/internal/billboard"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Params holds the tunable constants of Figure 1. The paper's proof uses
// k1 >= 1 and k2 >= 192 to make the constants in the union bounds work;
// empirically much smaller values give the same asymptotic behaviour with
// far better constants, so the defaults are practical rather than
// proof-grade. See EXPERIMENTS.md for the calibration.
type Params struct {
	// K1 scales the Step 1.1 exploration (default 2).
	K1 float64
	// K2 scales the Step 1.3 refinement and the C0 threshold K2/4
	// (default 8).
	K2 float64
	// Domain restricts all probing and candidate sets to these objects
	// (nil = all objects). Used by the §5.2 cost-class wrapper.
	Domain []int

	// Ablation switches (off in the paper's algorithm; see DESIGN.md §6).

	// DisableAdvice replaces the advice half of PROBE&SEEKADVICE with a
	// second explore probe. Lemma 6's fast termination argument no longer
	// applies; the A1 ablation measures the cost.
	DisableAdvice bool
	// ThresholdScale multiplies the survival thresholds k2/4 and n/(4c_t)
	// (default 1). Laxer thresholds admit more bad candidates; stricter
	// ones risk dropping the good object. The A3 ablation sweeps it.
	ThresholdScale float64
	// CumulativeCounts uses cumulative vote totals instead of
	// per-iteration window counts ℓ_t when filtering candidates. This lets
	// the adversary reuse old votes in every iteration, breaking the
	// budget argument of Lemma 7 (Equation 1). The A4 ablation shows it.
	CumulativeCounts bool

	// NegativeVeto > 0 enables the §6 "can bad recommendations help?"
	// extension: objects with at least NegativeVeto negative reports are
	// excluded from every candidate set. The base algorithm uses only
	// positive reports; the X2 experiment measures both the upside
	// (truthful negatives prune bad objects) and the downside (Byzantine
	// slander can veto the good object). If the veto empties a candidate
	// set, it is ignored for that set (fallback, so the search cannot
	// deadlock).
	NegativeVeto int
}

func (p *Params) applyDefaults() {
	if p.K1 == 0 {
		p.K1 = 2
	}
	if p.K2 == 0 {
		p.K2 = 8
	}
}

func (p Params) validate() error {
	if p.K1 < 0 || p.K2 < 0 {
		return fmt.Errorf("core: negative DISTILL constants k1=%v k2=%v", p.K1, p.K2)
	}
	return nil
}

// distillPhase tracks which step of ATTEMPT the shared schedule is in.
type distillPhase int

const (
	phasePrepare distillPhase = iota + 1 // Step 1.1: seed the billboard
	phaseRefine                          // Step 1.3: concentrate votes on S
	phaseDistill                         // Step 2: the while loop
)

// Distill is Algorithm DISTILL of Figure 1, usable as a sim.Protocol.
type Distill struct {
	params Params
	hp     bool // scale k1, k2 by log2(n) at Init (DISTILL^HP)
	// nltFactor > 0 selects the §5.3 no-local-testing variant: the run is
	// prescribed to ceil(nltFactor * (log2 n/(αβn) + log2 n/α)) rounds.
	nltFactor float64

	n, m        int
	alpha, beta float64
	k1, k2      float64 // effective constants after HP scaling
	src         *rng.Source
	board       billboard.Reader
	domain      []int        // probe space (Params.Domain or all objects)
	domainSet   map[int]bool // membership index, only when Params.Domain != nil

	prescribed int // computed at Init when nltFactor > 0; else 0

	phase       distillPhase
	invLeft     int   // invocations left in the current step
	half        int   // 0 = explore round, 1 = advice round
	windowStart int   // first round of the current vote-count window
	probeSet    []int // explore set of the current step
	candidates  []int // C_t during phaseDistill

	wc billboard.WindowCounts // reused window-count buffer

	// Metrics.
	attempts       int
	iterationCount []int // while-loop iterations per completed attempt
	curIterations  int
	sSizes         []int // |S| at each Step 1.2
	c0Sizes        []int // |C0| at each Step 1.4 (0 when empty)
	ctSizes        []int // |C_t| after each Step 2.2 filtering
}

var _ sim.Protocol = (*Distill)(nil)

// NewDistill returns the base DISTILL protocol with the given parameters.
func NewDistill(params Params) *Distill {
	params.applyDefaults()
	return &Distill{params: params}
}

// NewDistillHP returns DISTILL^HP (§5): DISTILL with k1, k2 = Θ(log n).
// The log n factors are applied at Init time when n is known; K1 and K2 in
// params act as the Θ constants (defaults 1 and 4).
func NewDistillHP(params Params) *Distill {
	if params.K1 == 0 {
		params.K1 = 1
	}
	if params.K2 == 0 {
		params.K2 = 4
	}
	d := NewDistill(params)
	d.hp = true
	return d
}

// NewNoLocalTesting returns the §5.3 variant: DISTILL^HP run for a
// prescribed number of rounds with best-value votes, solving search without
// local testing (Theorem 13). factor is the constant in front of the
// prescribed O(log n/(αβn) + log n/α) round count (default 6).
func NewNoLocalTesting(params Params, factor float64) *Distill {
	d := NewDistillHP(params)
	if factor <= 0 {
		factor = 6
	}
	d.nltFactor = factor
	return d
}

// Name implements sim.Protocol.
func (d *Distill) Name() string {
	switch {
	case d.nltFactor > 0:
		return "distill-nlt"
	case d.hp:
		return "distill-hp"
	default:
		return "distill"
	}
}

// Init implements sim.Protocol.
func (d *Distill) Init(setup sim.Setup) error {
	if err := d.params.validate(); err != nil {
		return err
	}
	if setup.Alpha <= 0 || setup.Alpha > 1 {
		return fmt.Errorf("core: DISTILL needs assumed alpha in (0, 1], got %v", setup.Alpha)
	}
	if setup.Beta <= 0 || setup.Beta > 1 {
		return fmt.Errorf("core: DISTILL needs assumed beta in (0, 1], got %v", setup.Beta)
	}
	d.n = setup.N
	d.m = setup.Universe.M()
	d.alpha = setup.Alpha
	d.beta = setup.Beta
	d.src = setup.Rng
	d.board = setup.Board

	if d.params.Domain != nil {
		for _, obj := range d.params.Domain {
			if obj < 0 || obj >= d.m {
				return fmt.Errorf("core: domain object %d out of range [0, %d)", obj, d.m)
			}
		}
		d.domain = append([]int(nil), d.params.Domain...)
		if len(d.domain) == 0 {
			return fmt.Errorf("core: empty probe domain")
		}
		d.domainSet = make(map[int]bool, len(d.domain))
		for _, obj := range d.domain {
			d.domainSet[obj] = true
		}
	} else {
		d.domain = make([]int, d.m)
		for i := range d.domain {
			d.domain[i] = i
		}
	}

	logN := math.Log2(float64(d.n))
	if logN < 1 {
		logN = 1
	}
	d.k1, d.k2 = d.params.K1, d.params.K2
	if d.hp {
		d.k1 *= logN
		d.k2 *= logN
	}
	if d.nltFactor > 0 {
		d.prescribed = int(math.Ceil(d.nltFactor *
			(logN/(d.alpha*d.beta*float64(d.n)) + logN/d.alpha)))
		if d.prescribed < 1 {
			d.prescribed = 1
		}
	} else {
		d.prescribed = 0
	}

	d.attempts = 0
	d.curIterations = 0
	d.iterationCount = nil
	d.sSizes, d.c0Sizes, d.ctSizes = nil, nil, nil
	d.startAttempt(0)
	return nil
}

// PoolSizes reports the recorded candidate-machinery trajectory: |S| at
// each Step 1.2, |C0| at each Step 1.4, and |C_t| after each Step 2.2
// filtering. Experiment instrumentation; cheap to keep always-on.
func (d *Distill) PoolSizes() (s, c0, ct []int) {
	return append([]int(nil), d.sSizes...),
		append([]int(nil), d.c0Sizes...),
		append([]int(nil), d.ctSizes...)
}

// PrescribedRounds implements sim.Protocol.
func (d *Distill) PrescribedRounds() int {
	if d.prescribed > 0 {
		return d.prescribed
	}
	return 0
}

// Attempts returns the number of ATTEMPT invocations started so far.
func (d *Distill) Attempts() int { return d.attempts }

// IterationCounts returns the number of Step 2 while-loop iterations in
// each attempt so far, including the attempt in progress (the quantity
// Lemma 7 bounds by O(log n / Δ)).
func (d *Distill) IterationCounts() []int {
	out := append([]int(nil), d.iterationCount...)
	if d.attempts > 0 {
		out = append(out, d.curIterations)
	}
	return out
}

// invocations returns ceil(x) clamped to at least 1.
func invocations(x float64) int {
	k := int(math.Ceil(x))
	if k < 1 {
		k = 1
	}
	return k
}

// startAttempt resets the schedule to Step 1.1 of a fresh ATTEMPT.
func (d *Distill) startAttempt(round int) {
	if d.curIterations > 0 || d.attempts > 0 {
		d.iterationCount = append(d.iterationCount, d.curIterations)
	}
	d.curIterations = 0
	d.attempts++
	d.phase = phasePrepare
	d.invLeft = invocations(d.k1 / (d.alpha * d.beta * float64(d.n)))
	d.half = 0
	d.windowStart = round
	d.probeSet = d.applyVeto(d.domain)
}

// advance moves the schedule to the next step when the current one's
// invocations are exhausted. Called at the start of a round, before probing.
func (d *Distill) advance(round int) {
	for d.invLeft == 0 {
		switch d.phase {
		case phasePrepare:
			// Step 1.2: S = objects with at least one vote (within domain).
			s := d.applyVeto(d.votedInDomain())
			d.sSizes = append(d.sSizes, len(s))
			if len(s) == 0 {
				// Nothing recommended yet; explore the whole domain during
				// Step 1.3 instead of an empty set (robustness deviation;
				// C0 will then be computed from whatever votes appear).
				s = d.probeSet
			}
			d.phase = phaseRefine
			d.invLeft = invocations(d.k2 / d.alpha)
			d.windowStart = round
			d.probeSet = s
		case phaseRefine:
			// Step 1.4: C0 = objects with >= k2/4 votes during Step 1.3.
			d.loadWindowCounts(round)
			threshold := d.k2 / 4 * d.thresholdScale()
			c0 := d.filterDomain(func(c int) bool { return float64(c) >= threshold })
			if len(c0) > 0 {
				c0 = d.applyVeto(c0)
			}
			d.c0Sizes = append(d.c0Sizes, len(c0))
			if len(c0) == 0 {
				d.startAttempt(round)
				continue
			}
			d.phase = phaseDistill
			d.candidates = c0
			d.invLeft = invocations(1 / d.alpha)
			d.windowStart = round
			d.probeSet = c0
		case phaseDistill:
			// Step 2.2: keep candidates with ℓ_t(i) > n/(4 c_t).
			d.loadWindowCounts(round)
			ct := float64(len(d.candidates))
			threshold := float64(d.n) / (4 * ct) * d.thresholdScale()
			next := d.candidates[:0]
			for _, obj := range d.candidates {
				if float64(d.wc.Count(obj)) > threshold {
					next = append(next, obj)
				}
			}
			if len(next) > 0 {
				next = d.applyVeto(next)
			}
			d.candidates = next
			d.curIterations++
			d.ctSizes = append(d.ctSizes, len(next))
			if len(d.candidates) == 0 {
				d.startAttempt(round)
				continue
			}
			d.invLeft = invocations(1 / d.alpha)
			d.windowStart = round
			d.probeSet = d.candidates
		}
	}
}

// applyVeto removes objects with >= NegativeVeto negative reports, falling
// back to the unfiltered set if that would leave nothing to probe.
func (d *Distill) applyVeto(objs []int) []int {
	if d.params.NegativeVeto <= 0 {
		return objs
	}
	kept := make([]int, 0, len(objs))
	for _, obj := range objs {
		if d.board.NegativeCount(obj) < d.params.NegativeVeto {
			kept = append(kept, obj)
		}
	}
	if len(kept) == 0 {
		return objs
	}
	return kept
}

// thresholdScale returns the ablation multiplier (1 when unset).
func (d *Distill) thresholdScale() float64 {
	if d.params.ThresholdScale <= 0 {
		return 1
	}
	return d.params.ThresholdScale
}

// loadWindowCounts fills d.wc with the vote counts the candidate filters
// use: the per-window counts ℓ_t of Figure 1, read into the reused buffer,
// or cumulative totals under the A4 ablation. It is the protocol's only
// window read.
func (d *Distill) loadWindowCounts(round int) {
	if !d.params.CumulativeCounts {
		d.board.CountVotesInWindow(d.windowStart, round, &d.wc)
		return
	}
	d.wc.Reset(d.m)
	for _, obj := range d.board.VotedObjects() {
		d.wc.Add(obj, d.board.VoteCount(obj))
	}
}

// votedInDomain returns the domain objects that currently hold votes.
func (d *Distill) votedInDomain() []int {
	if d.params.Domain == nil {
		return d.board.VotedObjects()
	}
	out := make([]int, 0)
	for _, obj := range d.domain {
		if d.board.VoteCount(obj) > 0 {
			out = append(out, obj)
		}
	}
	return out
}

// filterDomain collects the objects in d.wc passing keep, restricted to
// the probe domain, in increasing object order (determinism).
func (d *Distill) filterDomain(keep func(int) bool) []int {
	out := make([]int, 0)
	if d.params.Domain == nil {
		// wc.Objects() is ascending, so the output is already sorted —
		// the same order the map-and-sort implementation produced.
		for _, obj := range d.wc.Objects() {
			if keep(d.wc.Count(obj)) {
				out = append(out, obj)
			}
		}
		return out
	}
	for _, obj := range d.domain {
		if keep(d.wc.Count(obj)) {
			out = append(out, obj)
		}
	}
	return out
}

// Probes implements sim.Protocol. Each PROBE&SEEKADVICE invocation spans
// two rounds: an explore round (probe a random object from the current set)
// and an advice round (probe the vote of a random player, if any) — per
// Lemma 6, "every second probe follows a vote of a randomly chosen player".
func (d *Distill) Probes(round int, active []int, dst []sim.Probe) []sim.Probe {
	d.BeginRound(round)
	for _, player := range active {
		if obj, ok := d.ProbeFor(d.src); ok {
			dst = append(dst, sim.Probe{Player: player, Object: obj})
		}
	}
	d.FinishRound()
	return dst
}

// BeginRound advances the shared schedule to this round's step. The
// schedule (phase, remaining invocations, candidate sets, vote windows)
// evolves from committed billboard state only — never from any random
// stream — so every honest player holds the identical schedule. Callers
// driving many players through one Distill (the swarm driver) call
// BeginRound once, then ProbeFor per player with that player's own stream,
// then FinishRound; Probes is exactly that loop over d.src.
func (d *Distill) BeginRound(round int) {
	if d.half == 0 {
		d.advance(round)
	}
}

// AdviceRound reports whether the current round (between BeginRound and
// FinishRound) is an advice half-round, i.e. ProbeFor will consult other
// players' votes. The swarm driver uses this to prefetch the round's vote
// reads in bulk before running the per-player draw loop.
func (d *Distill) AdviceRound() bool {
	return d.half == 1 && !d.params.DisableAdvice
}

// ProbeFor draws this round's probe choice for one player from src. The
// explore half always yields a probe; the advice half may yield none (no
// votes, domain mismatch, veto) — the player simply sits the round out.
func (d *Distill) ProbeFor(src *rng.Source) (int, bool) {
	if d.half == 0 || d.params.DisableAdvice {
		set := d.probeSet
		return set[src.Intn(len(set))], true
	}
	return d.adviceProbeFrom(src)
}

// FinishRound flips the explore/advice half and retires an invocation at
// the end of each advice round. Must be called exactly once per round,
// after every active player's ProbeFor.
func (d *Distill) FinishRound() {
	if d.half == 0 {
		d.half = 1
	} else {
		d.half = 0
		d.invLeft--
	}
}

// adviceProbeFrom picks a uniformly random player and returns one of its
// voted objects (uniformly), restricted to the probe domain, drawing from
// the given stream.
func (d *Distill) adviceProbeFrom(src *rng.Source) (int, bool) {
	j := src.Intn(d.n)
	votes := d.board.Votes(j)
	if len(votes) == 0 {
		return 0, false
	}
	obj := votes[src.Intn(len(votes))].Object
	if d.domainSet != nil && !d.domainSet[obj] {
		return 0, false
	}
	if d.params.NegativeVeto > 0 && d.board.NegativeCount(obj) >= d.params.NegativeVeto {
		// The veto extension distrusts slandered objects consistently:
		// advice toward them is refused too.
		return 0, false
	}
	return obj, true
}
