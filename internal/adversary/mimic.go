package adversary

import (
	"repro/internal/sim"
)

// Mimic implements the symmetry attack underlying Theorem 2: the dishonest
// players are split into Groups groups; group g behaves exactly like honest
// players for whom the g-th block of bad objects is the good set. Each
// round, the adversary observes how many honest players are casting their
// first vote (via the pending posts — its adaptive power) and has each
// group cast votes for its designated fake objects at the same rate, so
// that fake objects accumulate votes statistically indistinguishably from
// the genuinely good ones.
type Mimic struct {
	// Groups is the number of dishonest collusion groups (default 4).
	Groups int
	// FakePerGroup is how many fake "good" objects each group promotes
	// (default 1, matching β = 1/m universes).
	FakePerGroup int

	initialized bool
	fake        [][]int // fake good set per group
	members     [][]int // dishonest player ids per group
	nextVoter   []int   // per group, index of the next member to spend
}

var _ sim.Adversary = (*Mimic)(nil)

// NewMimic returns a Mimic adversary with the given number of groups.
func NewMimic(groups int) *Mimic {
	if groups <= 0 {
		groups = 4
	}
	return &Mimic{Groups: groups, FakePerGroup: 1}
}

// Name implements sim.Adversary.
func (a *Mimic) Name() string { return "mimic" }

func (a *Mimic) setup(ctx *sim.AdvContext) {
	a.initialized = true
	groups := a.Groups
	if groups <= 0 {
		groups = 4
	}
	if groups > len(ctx.Dishonest) {
		groups = len(ctx.Dishonest)
	}
	if groups == 0 {
		return
	}
	perGroup := a.FakePerGroup
	if perGroup <= 0 {
		perGroup = 1
	}
	bad := badObjects(ctx.Universe)
	a.fake = make([][]int, groups)
	a.members = make([][]int, groups)
	a.nextVoter = make([]int, groups)
	for g := 0; g < groups; g++ {
		for k := 0; k < perGroup; k++ {
			idx := g*perGroup + k
			if idx < len(bad) {
				a.fake[g] = append(a.fake[g], bad[idx])
			}
		}
	}
	for i, p := range ctx.Dishonest {
		g := i % groups
		a.members[g] = append(a.members[g], p)
	}
}

// Act implements sim.Adversary.
func (a *Mimic) Act(ctx *sim.AdvContext) {
	if !a.initialized {
		a.setup(ctx)
	}
	if len(a.members) == 0 {
		return
	}
	// Count honest first-votes in flight this round.
	honestVotes := 0
	for _, post := range ctx.Board.Pending() {
		if post.Positive && !ctx.Board.HasVote(post.Player) {
			honestVotes++
		}
	}
	if honestVotes == 0 {
		return
	}
	// Each group matches the honest vote rate, scaled by its size relative
	// to the honest population, but at least matching one-for-one when
	// groups are as large as the honest side (the Theorem 2 instance).
	for g := range a.members {
		toCast := honestVotes
		for k := 0; k < toCast; k++ {
			if a.nextVoter[g] >= len(a.members[g]) {
				break // group budget spent
			}
			player := a.members[g][a.nextVoter[g]]
			obj := a.fake[g][k%len(a.fake[g])]
			vote(ctx.Board, player, obj)
			a.nextVoter[g]++
		}
	}
}

// DelayedStuffing hoards the dishonest vote budget until DISTILL's
// distillation loop starts, then dumps every vote on the bad candidates at
// once — a burst attack that tests whether a one-window surge can keep bad
// objects alive longer than the steady drip of ThresholdRide.
type DelayedStuffing struct {
	done bool
}

var _ sim.Adversary = (*DelayedStuffing)(nil)

// NewDelayedStuffing returns the burst adversary.
func NewDelayedStuffing() *DelayedStuffing { return &DelayedStuffing{} }

// Name implements sim.Adversary.
func (a *DelayedStuffing) Name() string { return "delayed-stuffing" }

// Act implements sim.Adversary.
func (a *DelayedStuffing) Act(ctx *sim.AdvContext) {
	if a.done {
		return
	}
	insp, ok := ctx.Protocol.(distillInspector)
	if !ok {
		return
	}
	st := insp.DistillState()
	if st.Phase != "distill" {
		return
	}
	a.done = true
	targets := make([]int, 0)
	for _, obj := range st.Candidates {
		if !ctx.Universe.IsGood(obj) {
			targets = append(targets, obj)
		}
	}
	if len(targets) == 0 {
		return
	}
	for i, p := range ctx.Dishonest {
		if ctx.Board.HasVote(p) {
			continue
		}
		vote(ctx.Board, p, targets[i%len(targets)])
	}
}
