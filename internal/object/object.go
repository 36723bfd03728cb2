// Package object models the object universe of the paper: m objects, each
// with an intrinsic unknown value and a known cost. Objects are partitioned
// into good (high value) and bad (low value) ones.
//
// Two goodness models are supported, mirroring §2.2 of the paper:
//
//   - Local testing: a player can tell whether an object is good immediately
//     after probing it (value meets a known threshold).
//   - No local testing: goodness is defined only by the parameter β — an
//     object is good iff it is among the top βm objects by value.
package object

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/rng"
)

// Universe is an immutable collection of objects. Values are hidden from
// players until probed; costs are public. Construct with NewUniverse or a
// generator; the zero value is unusable.
type Universe struct {
	values       []float64
	costs        []float64
	unitCosts    bool // every cost is 1
	good         []bool
	goodCount    int
	localTesting bool
	threshold    float64 // goodness threshold when localTesting
}

// Config describes a universe to build explicitly. Generators in this
// package provide the common cases.
type Config struct {
	// Values holds the intrinsic object values. Required.
	Values []float64
	// Costs holds the known object costs. If nil, unit costs are used.
	Costs []float64
	// LocalTesting selects the goodness model. When true, an object is good
	// iff its value >= Threshold and players can test goodness locally.
	LocalTesting bool
	// Threshold is the goodness threshold for the local-testing model.
	Threshold float64
	// Beta is the good fraction for the no-local-testing model: the top
	// Beta*m objects by value are good. Ignored when LocalTesting is set.
	Beta float64
}

// NewUniverse validates cfg and builds a Universe.
func NewUniverse(cfg Config) (*Universe, error) {
	m := len(cfg.Values)
	if m == 0 {
		return nil, fmt.Errorf("object: universe needs at least one object")
	}
	costs := cfg.Costs
	if costs == nil {
		costs = make([]float64, m)
		for i := range costs {
			costs[i] = 1
		}
	}
	if len(costs) != m {
		return nil, fmt.Errorf("object: %d costs for %d values", len(costs), m)
	}
	unit := true
	for i, c := range costs {
		if c < 0 {
			return nil, fmt.Errorf("object: negative cost %v at index %d", c, i)
		}
		unit = unit && c == 1
	}
	for i, v := range cfg.Values {
		if v < 0 {
			return nil, fmt.Errorf("object: negative value %v at index %d", v, i)
		}
	}
	u := &Universe{
		values:       append([]float64(nil), cfg.Values...),
		costs:        append([]float64(nil), costs...),
		unitCosts:    unit,
		localTesting: cfg.LocalTesting,
		threshold:    cfg.Threshold,
	}
	u.good = make([]bool, m)
	if cfg.LocalTesting {
		for i, v := range u.values {
			u.good[i] = v >= cfg.Threshold
		}
	} else {
		if cfg.Beta <= 0 || cfg.Beta > 1 {
			return nil, fmt.Errorf("object: beta %v outside (0, 1]", cfg.Beta)
		}
		k := int(cfg.Beta * float64(m))
		if k < 1 {
			k = 1
		}
		// The top-k objects by value are good; ties broken by index for
		// determinism.
		idx := make([]int, m)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool {
			if u.values[idx[a]] != u.values[idx[b]] {
				return u.values[idx[a]] > u.values[idx[b]]
			}
			return idx[a] < idx[b]
		})
		for _, i := range idx[:k] {
			u.good[i] = true
		}
	}
	for _, g := range u.good {
		if g {
			u.goodCount++
		}
	}
	if u.goodCount == 0 {
		return nil, fmt.Errorf("object: universe has no good object")
	}
	return u, nil
}

// M returns the number of objects.
func (u *Universe) M() int { return len(u.values) }

// Value returns the (normally hidden) value of object i. The simulation
// engine calls this when a player probes i.
func (u *Universe) Value(i int) float64 { return u.values[i] }

// Cost returns the publicly known cost of object i.
func (u *Universe) Cost(i int) float64 { return u.costs[i] }

// UnitCosts reports whether every object costs 1, the unit cost model of
// §4.
func (u *Universe) UnitCosts() bool { return u.unitCosts }

// IsGood reports whether object i is good. With local testing a player
// learns this bit by probing; without, only the evaluation harness may
// consult it.
func (u *Universe) IsGood(i int) bool { return u.good[i] }

// LocalTesting reports whether goodness is locally testable.
func (u *Universe) LocalTesting() bool { return u.localTesting }

// GoodCount returns the number of good objects.
func (u *Universe) GoodCount() int { return u.goodCount }

// Beta returns the realized good fraction goodCount/m.
func (u *Universe) Beta() float64 {
	return float64(u.goodCount) / float64(len(u.values))
}

// GoodObjects returns the indices of all good objects in increasing order.
func (u *Universe) GoodObjects() []int {
	out := make([]int, 0, u.goodCount)
	for i, g := range u.good {
		if g {
			out = append(out, i)
		}
	}
	return out
}

// CheapestGoodCost returns the minimum cost over good objects.
func (u *Universe) CheapestGoodCost() float64 {
	best := -1.0
	for i, g := range u.good {
		if g && (best < 0 || u.costs[i] < best) {
			best = u.costs[i]
		}
	}
	return best
}

// Churn replaces the good set of a local-testing universe: objects in
// newGood receive value threshold+1, all others value 0. This models the
// "changing interests" setting that motivated the authors' prior work [1]
// (experiment X6 studies how the one-vote rule behaves under it). It
// returns an error for no-local-testing universes, an empty newGood, a
// non-positive threshold, or out-of-range objects.
func (u *Universe) Churn(newGood []int) error {
	if !u.localTesting {
		return fmt.Errorf("object: Churn requires a local-testing universe")
	}
	if u.threshold <= 0 {
		return fmt.Errorf("object: Churn requires a positive goodness threshold")
	}
	if len(newGood) == 0 {
		return fmt.Errorf("object: Churn needs at least one good object")
	}
	for _, obj := range newGood {
		if obj < 0 || obj >= len(u.values) {
			return fmt.Errorf("object: Churn object %d out of range", obj)
		}
	}
	for i := range u.values {
		u.values[i] = 0
		u.good[i] = false
	}
	u.goodCount = 0
	for _, obj := range newGood {
		if !u.good[obj] {
			u.values[obj] = u.threshold + 1
			u.good[obj] = true
			u.goodCount++
		}
	}
	return nil
}

// Restrict returns a view of the universe containing only the objects in
// keep (by original index), along with the mapping from new index to old.
// The view shares no mutable state with u. Goodness of kept objects is
// preserved even if the view would re-rank differently; this is what the
// cost-class search of §5.2 needs. If no kept object is good, the returned
// universe has goodCount 0 and IsGood is false everywhere — searches on it
// simply never succeed, which models "this cost class has no good object".
func (u *Universe) Restrict(keep []int) (*Universe, []int) {
	v := &Universe{
		values:       make([]float64, len(keep)),
		costs:        make([]float64, len(keep)),
		unitCosts:    true,
		good:         make([]bool, len(keep)),
		localTesting: u.localTesting,
		threshold:    u.threshold,
	}
	mapping := append([]int(nil), keep...)
	for newIdx, oldIdx := range keep {
		v.values[newIdx] = u.values[oldIdx]
		v.costs[newIdx] = u.costs[oldIdx]
		v.unitCosts = v.unitCosts && v.costs[newIdx] == 1
		v.good[newIdx] = u.good[oldIdx]
		if v.good[newIdx] {
			v.goodCount++
		}
	}
	return v, mapping
}

// Planted describes the standard synthetic workload: good objects have
// value GoodValue, bad objects have value BadValue, with optional
// additive noise that never crosses the threshold midway between them.
type Planted struct {
	M         int     // number of objects (required, > 0)
	Good      int     // number of good objects (required, in [1, M])
	GoodValue float64 // default 1
	BadValue  float64 // default 0
	Noise     float64 // uniform value noise amplitude, < (GoodValue-BadValue)/2
	Costs     []float64
}

// NewPlanted builds a local-testing universe with Good good objects placed
// uniformly at random among M objects.
func NewPlanted(p Planted, src *rng.Source) (*Universe, error) {
	if p.M <= 0 {
		return nil, fmt.Errorf("object: planted universe needs M > 0, got %d", p.M)
	}
	if p.Good < 1 || p.Good > p.M {
		return nil, fmt.Errorf("object: planted good count %d outside [1, %d]", p.Good, p.M)
	}
	goodValue, badValue := p.GoodValue, p.BadValue
	if goodValue == 0 && badValue == 0 {
		goodValue = 1
	}
	if goodValue <= badValue {
		return nil, fmt.Errorf("object: GoodValue %v <= BadValue %v", goodValue, badValue)
	}
	if p.Noise < 0 || p.Noise >= (goodValue-badValue)/2 {
		if p.Noise != 0 {
			return nil, fmt.Errorf("object: noise %v must be in [0, %v)", p.Noise, (goodValue-badValue)/2)
		}
	}
	values := make([]float64, p.M)
	for i := range values {
		values[i] = badValue
		if p.Noise > 0 {
			values[i] += p.Noise * src.Float64()
		}
	}
	for _, i := range src.Sample(p.M, p.Good) {
		values[i] = goodValue
		if p.Noise > 0 {
			values[i] += p.Noise * src.Float64()
		}
	}
	return NewUniverse(Config{
		Values:       values,
		Costs:        p.Costs,
		LocalTesting: true,
		Threshold:    (goodValue + badValue) / 2,
	})
}

// NewTopBeta builds a no-local-testing universe: M objects with values
// drawn i.i.d. uniform in [0, 1); the top beta*M are good by definition.
func NewTopBeta(m int, beta float64, src *rng.Source) (*Universe, error) {
	if m <= 0 {
		return nil, fmt.Errorf("object: NewTopBeta needs m > 0, got %d", m)
	}
	values := make([]float64, m)
	for i := range values {
		values[i] = src.Float64()
	}
	return NewUniverse(Config{Values: values, Beta: beta})
}

// NewZipfTopBeta builds a no-local-testing universe with a heavy-tailed
// value distribution: object values follow a Zipf(exponent) profile over a
// random quality ranking (plus a tiny tie-breaking jitter), modeling
// recommendation catalogs where a few items are far better than the rest.
// The top beta*M objects by value are good.
func NewZipfTopBeta(m int, beta, exponent float64, src *rng.Source) (*Universe, error) {
	if m <= 0 {
		return nil, fmt.Errorf("object: NewZipfTopBeta needs m > 0, got %d", m)
	}
	if exponent <= 0 {
		return nil, fmt.Errorf("object: NewZipfTopBeta needs exponent > 0, got %v", exponent)
	}
	ranking := src.Perm(m)
	values := make([]float64, m)
	for rank, obj := range ranking {
		base := 1 / pow(float64(rank+1), exponent)
		// Jitter far below the smallest rank gap keeps the ranking strict
		// without reordering it.
		values[obj] = base + src.Float64()*1e-12
	}
	return NewUniverse(Config{Values: values, Beta: beta})
}

// pow is a tiny local wrapper to keep math out of the hot path imports.
func pow(x, y float64) float64 {
	return math.Pow(x, y)
}
