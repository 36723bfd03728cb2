package object

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestNewUniverseLocalTesting(t *testing.T) {
	u, err := NewUniverse(Config{
		Values:       []float64{0, 1, 0.4, 0.6},
		LocalTesting: true,
		Threshold:    0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if u.M() != 4 {
		t.Fatalf("M = %d", u.M())
	}
	wantGood := []bool{false, true, false, true}
	for i, want := range wantGood {
		if u.IsGood(i) != want {
			t.Fatalf("IsGood(%d) = %v, want %v", i, u.IsGood(i), want)
		}
	}
	if u.GoodCount() != 2 || u.Beta() != 0.5 {
		t.Fatalf("GoodCount=%d Beta=%v", u.GoodCount(), u.Beta())
	}
	if !u.LocalTesting() {
		t.Fatal("LocalTesting should be true")
	}
	got := u.GoodObjects()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("GoodObjects = %v", got)
	}
}

func TestNewUniverseTopBeta(t *testing.T) {
	u, err := NewUniverse(Config{
		Values: []float64{0.1, 0.9, 0.5, 0.7},
		Beta:   0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Top 2 by value: indices 1 (0.9) and 3 (0.7).
	if !u.IsGood(1) || !u.IsGood(3) || u.IsGood(0) || u.IsGood(2) {
		t.Fatalf("top-beta goodness wrong: %v %v %v %v",
			u.IsGood(0), u.IsGood(1), u.IsGood(2), u.IsGood(3))
	}
	if u.LocalTesting() {
		t.Fatal("LocalTesting should be false")
	}
}

func TestTopBetaAtLeastOneGood(t *testing.T) {
	// beta*m < 1 still yields one good object (beta = 1/m effectively).
	u, err := NewUniverse(Config{
		Values: []float64{0.3, 0.1, 0.2},
		Beta:   0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	if u.GoodCount() != 1 || !u.IsGood(0) {
		t.Fatalf("want exactly object 0 good, got count %d", u.GoodCount())
	}
}

func TestTopBetaTieBreaking(t *testing.T) {
	u, err := NewUniverse(Config{
		Values: []float64{0.5, 0.5, 0.5, 0.5},
		Beta:   0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Ties break by index: objects 0 and 1 are good.
	if !u.IsGood(0) || !u.IsGood(1) || u.IsGood(2) || u.IsGood(3) {
		t.Fatal("tie-breaking by index violated")
	}
}

func TestNewUniverseErrors(t *testing.T) {
	cases := []Config{
		{}, // no values
		{Values: []float64{1}, Costs: []float64{1, 2}},              // cost length
		{Values: []float64{1}, Costs: []float64{-1}},                // negative cost
		{Values: []float64{-1}, Beta: 0.5},                          // negative value
		{Values: []float64{1, 2}, Beta: 0},                          // bad beta
		{Values: []float64{1, 2}, Beta: 1.5},                        // bad beta
		{Values: []float64{0, 0}, LocalTesting: true, Threshold: 1}, // no good
	}
	for i, cfg := range cases {
		if _, err := NewUniverse(cfg); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestDefaultUnitCosts(t *testing.T) {
	u, err := NewUniverse(Config{Values: []float64{1, 2}, Beta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if u.Cost(0) != 1 || u.Cost(1) != 1 || !u.UnitCosts() {
		t.Fatal("default costs should be unit")
	}
	given, err := NewUniverse(Config{Values: []float64{1, 2}, Costs: []float64{1, 1}, Beta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !given.UnitCosts() {
		t.Fatal("costs given as all 1 should read as unit")
	}
}

func TestCheapestGoodCost(t *testing.T) {
	u, err := NewUniverse(Config{
		Values:       []float64{1, 1, 0},
		Costs:        []float64{5, 3, 1},
		LocalTesting: true,
		Threshold:    0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c := u.CheapestGoodCost(); c != 3 {
		t.Fatalf("CheapestGoodCost = %v", c)
	}
}

func TestRestrict(t *testing.T) {
	u, err := NewUniverse(Config{
		Values:       []float64{1, 0, 1, 0},
		Costs:        []float64{1, 2, 3, 4},
		LocalTesting: true,
		Threshold:    0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	v, mapping := u.Restrict([]int{2, 3})
	if v.M() != 2 {
		t.Fatalf("restricted M = %d", v.M())
	}
	if !v.IsGood(0) || v.IsGood(1) {
		t.Fatal("restricted goodness wrong")
	}
	if v.Cost(0) != 3 || v.Cost(1) != 4 {
		t.Fatal("restricted costs wrong")
	}
	if u.UnitCosts() || v.UnitCosts() {
		t.Fatal("priced universes read as unit-cost")
	}
	if one, _ := u.Restrict([]int{0}); !one.UnitCosts() {
		t.Fatal("a restriction to the cost-1 objects should read as unit-cost")
	}
	if mapping[0] != 2 || mapping[1] != 3 {
		t.Fatalf("mapping = %v", mapping)
	}
	// A restriction with no good object is allowed (class without good).
	w, _ := u.Restrict([]int{1, 3})
	if w.GoodCount() != 0 {
		t.Fatalf("want 0 good in bad-only restriction, got %d", w.GoodCount())
	}
}

func TestNewPlanted(t *testing.T) {
	src := rng.New(1)
	u, err := NewPlanted(Planted{M: 100, Good: 7}, src)
	if err != nil {
		t.Fatal(err)
	}
	if u.GoodCount() != 7 {
		t.Fatalf("GoodCount = %d", u.GoodCount())
	}
	if !u.LocalTesting() {
		t.Fatal("planted universe should be local-testing")
	}
	for _, i := range u.GoodObjects() {
		if u.Value(i) < 0.5 {
			t.Fatalf("good object %d has value %v below threshold", i, u.Value(i))
		}
	}
}

func TestNewPlantedNoise(t *testing.T) {
	src := rng.New(2)
	u, err := NewPlanted(Planted{M: 200, Good: 10, Noise: 0.4}, src)
	if err != nil {
		t.Fatal(err)
	}
	// Noise must never flip goodness relative to the planted set.
	if u.GoodCount() != 10 {
		t.Fatalf("noise changed good count to %d", u.GoodCount())
	}
}

func TestNewPlantedErrors(t *testing.T) {
	src := rng.New(3)
	cases := []Planted{
		{M: 0, Good: 1},
		{M: 10, Good: 0},
		{M: 10, Good: 11},
		{M: 10, Good: 1, GoodValue: 1, BadValue: 2},
		{M: 10, Good: 1, Noise: 0.6}, // noise >= (1-0)/2
	}
	for i, p := range cases {
		if _, err := NewPlanted(p, src); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestNewPlantedGoodPlacementUniform(t *testing.T) {
	src := rng.New(4)
	const m, reps = 20, 4000
	counts := make([]int, m)
	for r := 0; r < reps; r++ {
		u, err := NewPlanted(Planted{M: m, Good: 1}, src)
		if err != nil {
			t.Fatal(err)
		}
		counts[u.GoodObjects()[0]]++
	}
	expected := float64(reps) / m
	for i, c := range counts {
		if math.Abs(float64(c)-expected) > 6*math.Sqrt(expected) {
			t.Fatalf("object %d planted %d times, expected ~%.0f", i, c, expected)
		}
	}
}

func TestNewTopBeta(t *testing.T) {
	src := rng.New(5)
	u, err := NewTopBeta(1000, 0.05, src)
	if err != nil {
		t.Fatal(err)
	}
	if u.GoodCount() != 50 {
		t.Fatalf("GoodCount = %d, want 50", u.GoodCount())
	}
	// Every good object must have value >= every bad object's value.
	minGood := math.Inf(1)
	maxBad := math.Inf(-1)
	for i := 0; i < u.M(); i++ {
		if u.IsGood(i) {
			minGood = math.Min(minGood, u.Value(i))
		} else {
			maxBad = math.Max(maxBad, u.Value(i))
		}
	}
	if minGood < maxBad {
		t.Fatalf("good/bad value overlap: minGood=%v maxBad=%v", minGood, maxBad)
	}
}

func TestUnitCosts(t *testing.T) {
	costs := UnitCosts(5)
	for _, c := range costs {
		if c != 1 {
			t.Fatalf("unit cost %v", c)
		}
	}
}

func TestParetoCostsMinimum(t *testing.T) {
	src := rng.New(6)
	for _, c := range ParetoCosts(1000, 1.2, src) {
		if c < 1 {
			t.Fatalf("Pareto cost below 1: %v", c)
		}
	}
}

func TestTwoTierCosts(t *testing.T) {
	src := rng.New(7)
	costs := TwoTierCosts(1000, 0.3, 64, src)
	cheap := 0
	for _, c := range costs {
		switch c {
		case 1:
			cheap++
		case 64:
		default:
			t.Fatalf("unexpected cost %v", c)
		}
	}
	if cheap < 200 || cheap > 400 {
		t.Fatalf("cheap count %d far from 300", cheap)
	}
}

func TestCostClassesPartition(t *testing.T) {
	u, err := NewUniverse(Config{
		Values:       []float64{1, 1, 1, 1, 1},
		Costs:        []float64{1, 1.5, 2, 7.9, 8},
		LocalTesting: true,
		Threshold:    0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	classes, err := CostClasses(u)
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 4 {
		t.Fatalf("got %d classes: %+v", len(classes), classes)
	}
	// Class 0 = [1,2): objects 0,1. Class 1 = [2,4): object 2.
	// Class 2 = [4,8): object 3 (7.9). Class 3 = [8,16): object 4.
	if classes[0].Index != 0 || len(classes[0].Objects) != 2 {
		t.Fatalf("class0 = %+v", classes[0])
	}
	if classes[1].Index != 1 || len(classes[1].Objects) != 1 || classes[1].Objects[0] != 2 {
		t.Fatalf("class1 = %+v", classes[1])
	}
	if classes[2].Index != 2 || len(classes[2].Objects) != 1 || classes[2].Objects[0] != 3 {
		t.Fatalf("class2 = %+v", classes[2])
	}
}

func TestCostClassesObject4(t *testing.T) {
	u, err := NewUniverse(Config{
		Values:       []float64{1, 1},
		Costs:        []float64{8, 1},
		LocalTesting: true,
		Threshold:    0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	classes, err := CostClasses(u)
	if err != nil {
		t.Fatal(err)
	}
	last := classes[len(classes)-1]
	if last.Index != 3 || last.Objects[0] != 0 {
		t.Fatalf("cost 8 should land in class 3 [8,16): %+v", last)
	}
	if last.Lower() != 8 || last.Upper() != 16 {
		t.Fatalf("bounds = [%v, %v)", last.Lower(), last.Upper())
	}
}

func TestCostClassesRejectsSubUnit(t *testing.T) {
	u, err := NewUniverse(Config{
		Values:       []float64{1, 1},
		Costs:        []float64{0.5, 1},
		LocalTesting: true,
		Threshold:    0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CostClasses(u); err == nil {
		t.Fatal("expected error for cost < 1")
	}
}

func TestCostClassesProperty(t *testing.T) {
	src := rng.New(8)
	f := func(seed uint16) bool {
		local := src.Split(uint64(seed))
		m := local.Intn(50) + 1
		costs := make([]float64, m)
		for i := range costs {
			costs[i] = 1 + 100*local.Float64()
		}
		values := make([]float64, m)
		values[local.Intn(m)] = 1
		u, err := NewUniverse(Config{Values: values, Costs: costs, LocalTesting: true, Threshold: 0.5})
		if err != nil {
			return false
		}
		classes, err := CostClasses(u)
		if err != nil {
			return false
		}
		seen := make(map[int]bool)
		for _, cl := range classes {
			for _, obj := range cl.Objects {
				if seen[obj] {
					return false // object in two classes
				}
				seen[obj] = true
				c := u.Cost(obj)
				if c < cl.Lower() || c >= cl.Upper() {
					return false // outside class bounds
				}
			}
		}
		return len(seen) == m // every object classified
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNewZipfTopBeta(t *testing.T) {
	src := rng.New(21)
	u, err := NewZipfTopBeta(500, 0.02, 1.1, src)
	if err != nil {
		t.Fatal(err)
	}
	if u.GoodCount() != 10 {
		t.Fatalf("GoodCount = %d, want 10", u.GoodCount())
	}
	if u.LocalTesting() {
		t.Fatal("Zipf universe should be no-local-testing")
	}
	// The value distribution must be heavy-tailed: the best object should
	// dominate the median by a large factor.
	best := 0.0
	for i := 0; i < u.M(); i++ {
		if v := u.Value(i); v > best {
			best = v
		}
	}
	if best < 0.99 {
		t.Fatalf("best value %v, want ~1 (rank 1)", best)
	}
	if _, err := NewZipfTopBeta(0, 0.1, 1, src); err == nil {
		t.Fatal("m=0 accepted")
	}
	if _, err := NewZipfTopBeta(10, 0.1, 0, src); err == nil {
		t.Fatal("exponent 0 accepted")
	}
}

func TestChurnMovesGoodSet(t *testing.T) {
	src := rng.New(30)
	u, err := NewPlanted(Planted{M: 20, Good: 2}, src)
	if err != nil {
		t.Fatal(err)
	}
	oldGood := u.GoodObjects()
	newGood := []int{}
	for i := 0; len(newGood) < 2; i++ {
		if !u.IsGood(i) {
			newGood = append(newGood, i)
		}
	}
	if err := u.Churn(newGood); err != nil {
		t.Fatal(err)
	}
	if u.GoodCount() != 2 {
		t.Fatalf("GoodCount = %d", u.GoodCount())
	}
	for _, obj := range newGood {
		if !u.IsGood(obj) {
			t.Fatalf("new good %d not good", obj)
		}
	}
	for _, obj := range oldGood {
		if u.IsGood(obj) {
			t.Fatalf("old good %d still good", obj)
		}
	}
}

func TestChurnValidation(t *testing.T) {
	src := rng.New(31)
	u, err := NewPlanted(Planted{M: 10, Good: 1}, src)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Churn(nil); err == nil {
		t.Fatal("empty churn accepted")
	}
	if err := u.Churn([]int{99}); err == nil {
		t.Fatal("out-of-range churn accepted")
	}
	nlt, err := NewTopBeta(10, 0.2, src)
	if err != nil {
		t.Fatal(err)
	}
	if err := nlt.Churn([]int{0}); err == nil {
		t.Fatal("no-local-testing churn accepted")
	}
	// Duplicate entries are deduplicated, not double-counted.
	if err := u.Churn([]int{3, 3}); err != nil {
		t.Fatal(err)
	}
	if u.GoodCount() != 1 {
		t.Fatalf("duplicates double-counted: %d", u.GoodCount())
	}
}
