package adversary

import (
	"repro/internal/core"
	"repro/internal/sim"
)

// distillInspector is satisfied by core.Distill and its wrappers; the
// adaptive adversary inspects the shared schedule state (all of which is
// derivable from the public billboard, per §2.3's adaptive model).
type distillInspector interface {
	DistillState() core.DistillState
}

// ThresholdRide is the Lemma 7 extremal strategy. It spends the dishonest
// vote budget window by window: whenever a counting window opens, it picks
// as many bad candidates as it can afford and gives each exactly the number
// of votes needed to survive into the next candidate set. SpendFraction
// limits how much of the remaining budget a single window may consume, so
// that votes remain for later (more expensive) iterations — stretching the
// distillation loop as long as the (1-α)n budget allows, which is exactly
// the quantity Equation (1) of the paper charges.
type ThresholdRide struct {
	// SpendFraction is the share of the remaining vote budget a single
	// window may consume (default 0.5).
	SpendFraction float64
	// StuffRefine also stuffs C₀ during Step 1.3 windows (default true via
	// NewThresholdRide).
	StuffRefine bool

	lastWindow int // start round of the last window acted upon
	havePhase  string
}

var _ sim.Adversary = (*ThresholdRide)(nil)

// NewThresholdRide returns the Lemma 7 adversary with default parameters.
func NewThresholdRide() *ThresholdRide {
	return &ThresholdRide{SpendFraction: 0.5, StuffRefine: true, lastWindow: -1}
}

// Name implements sim.Adversary.
func (a *ThresholdRide) Name() string { return "threshold-ride" }

// Act implements sim.Adversary.
func (a *ThresholdRide) Act(ctx *sim.AdvContext) {
	insp, ok := ctx.Protocol.(distillInspector)
	if !ok {
		return // not DISTILL; nothing to ride
	}
	st := insp.DistillState()
	if st.Phase == "prepare" {
		return
	}
	if st.Phase == "refine" && !a.StuffRefine {
		return
	}
	// Act once per window, at its first opportunity.
	if st.WindowStart == a.lastWindow && st.Phase == a.havePhase {
		return
	}
	a.lastWindow = st.WindowStart
	a.havePhase = st.Phase

	// Dishonest voters with budget left (under the paper's f = 1 this is
	// "has not voted yet"; with a lifted cap each player can push a fresh
	// object every window — the A2 ablation).
	voteCap := ctx.VotesCap
	if voteCap < 1 {
		voteCap = 1
	}
	voters := make([]int, 0, len(ctx.Dishonest))
	for _, p := range ctx.Dishonest {
		if len(ctx.Board.Votes(p)) < voteCap {
			voters = append(voters, p)
		}
	}
	if len(voters) == 0 || st.VotesNeeded <= 0 {
		return
	}
	spendFrac := a.SpendFraction
	if spendFrac <= 0 || spendFrac > 1 {
		spendFrac = 0.5
	}
	budget := int(float64(len(voters)) * spendFrac)
	if budget < st.VotesNeeded {
		// Not enough for even one object under the cap: go all-in if the
		// full remaining budget suffices, else give up this window.
		if len(voters) >= st.VotesNeeded {
			budget = st.VotesNeeded
		} else {
			return
		}
	}

	// Targets: bad objects, preferring current candidates (mandatory in the
	// distill phase — non-candidates cannot re-enter C_{t+1}).
	targets := make([]int, 0)
	for _, obj := range st.Candidates {
		if !ctx.Universe.IsGood(obj) {
			targets = append(targets, obj)
		}
	}
	if st.Phase == "refine" {
		// During refine, any bad object can be pushed into C₀; add extras
		// beyond the current candidate list if capacity allows.
		inCand := make(map[int]bool, len(targets))
		for _, obj := range targets {
			inCand[obj] = true
		}
		for obj := 0; obj < ctx.Universe.M() && len(targets)*st.VotesNeeded < budget; obj++ {
			if !ctx.Universe.IsGood(obj) && !inCand[obj] {
				targets = append(targets, obj)
			}
		}
	}

	vi := 0
	for _, obj := range targets {
		if budget < st.VotesNeeded {
			break
		}
		for k := 0; k < st.VotesNeeded; k++ {
			vote(ctx.Board, voters[vi], obj)
			vi++
		}
		budget -= st.VotesNeeded
	}
}
