// Package baseline implements the comparison algorithms the paper measures
// DISTILL against:
//
//   - TrivialRandom: probe a uniformly random object every round, ignoring
//     the billboard entirely. Terminates in O(1/β) expected rounds (§3).
//   - AsyncRoundRobin: a reconstruction of the authors' prior asynchronous
//     algorithm [1] run under a round-robin (synchronous) schedule. In each
//     round a player either explores a uniformly random object or follows
//     the vote of a uniformly random player, with equal probability. The
//     paper credits this algorithm with O(log n/(αβn) + log n/α) expected
//     rounds under a synchronous schedule; the explore/follow primitive is
//     exactly the one PROBE&SEEKADVICE derandomizes, and this reconstruction
//     exhibits the claimed Θ(log n/α) shape empirically (see EXPERIMENTS.md).
//   - OracleCoop: full-cooperation reference matching the Theorem 1 urn
//     argument — honest players magically trust each other, partition the
//     unprobed objects, and never repeat a probe. Its cost realizes the
//     Ω(1/(αβn)) collective-work lower bound and is unachievable for real
//     protocols facing Byzantine players.
package baseline

import (
	"fmt"

	"repro/internal/billboard"
	"repro/internal/rng"
	"repro/internal/sim"
)

// TrivialRandom is the billboard-oblivious baseline.
type TrivialRandom struct {
	m   int
	src *rng.Source
}

var _ sim.Protocol = (*TrivialRandom)(nil)

// NewTrivialRandom returns the trivial random-probing protocol.
func NewTrivialRandom() *TrivialRandom { return &TrivialRandom{} }

// Name implements sim.Protocol.
func (p *TrivialRandom) Name() string { return "trivial-random" }

// Init implements sim.Protocol.
func (p *TrivialRandom) Init(setup sim.Setup) error {
	p.m = setup.Universe.M()
	p.src = setup.Rng
	return nil
}

// PrescribedRounds implements sim.Protocol.
func (p *TrivialRandom) PrescribedRounds() int { return 0 }

// Probes implements sim.Protocol.
func (p *TrivialRandom) Probes(round int, active []int, dst []sim.Probe) []sim.Probe {
	for _, player := range active {
		dst = append(dst, sim.Probe{Player: player, Object: p.src.Intn(p.m)})
	}
	return dst
}

// AsyncRoundRobin reconstructs the algorithm of [1] under a synchronous
// round-robin schedule: each active player flips a fair coin each round and
// either probes a uniformly random object (explore) or probes the vote of a
// uniformly random player (follow); if the chosen player has no vote, the
// follow step is a no-op for that round, exactly as in PROBE&SEEKADVICE.
type AsyncRoundRobin struct {
	n     int
	m     int
	src   *rng.Source
	board billboard.Reader
}

var _ sim.Protocol = (*AsyncRoundRobin)(nil)

// NewAsyncRoundRobin returns the reconstructed [1] baseline.
func NewAsyncRoundRobin() *AsyncRoundRobin { return &AsyncRoundRobin{} }

// Name implements sim.Protocol.
func (p *AsyncRoundRobin) Name() string { return "async-round-robin" }

// Init implements sim.Protocol.
func (p *AsyncRoundRobin) Init(setup sim.Setup) error {
	p.n = setup.N
	p.m = setup.Universe.M()
	p.src = setup.Rng
	p.board = setup.Board
	return nil
}

// PrescribedRounds implements sim.Protocol.
func (p *AsyncRoundRobin) PrescribedRounds() int { return 0 }

// Probes implements sim.Protocol.
func (p *AsyncRoundRobin) Probes(round int, active []int, dst []sim.Probe) []sim.Probe {
	for _, player := range active {
		if p.src.Bernoulli(0.5) {
			// Explore.
			dst = append(dst, sim.Probe{Player: player, Object: p.src.Intn(p.m)})
			continue
		}
		// Follow a random player's vote, if it has one.
		j := p.src.Intn(p.n)
		votes := p.board.Votes(j)
		if len(votes) == 0 {
			continue
		}
		obj := votes[p.src.Intn(len(votes))].Object
		dst = append(dst, sim.Probe{Player: player, Object: obj})
	}
	return dst
}

// OracleCoop is the full-cooperation reference of Theorem 1. All honest
// players share a random permutation of the objects and claim successive
// unprobed objects from it, so no object is ever probed twice by honest
// players; once any honest player finds a good object, everyone else probes
// it next round. This models "the honest players know what reports are
// trustworthy" from the Theorem 1 proof.
type OracleCoop struct {
	perm  []int
	next  int
	board billboard.Reader
	src   *rng.Source
}

var _ sim.Protocol = (*OracleCoop)(nil)

// NewOracleCoop returns the full-cooperation oracle baseline.
func NewOracleCoop() *OracleCoop { return &OracleCoop{} }

// Name implements sim.Protocol.
func (p *OracleCoop) Name() string { return "oracle-coop" }

// Init implements sim.Protocol.
func (p *OracleCoop) Init(setup sim.Setup) error {
	if setup.Universe.M() <= 0 {
		return fmt.Errorf("baseline: empty universe")
	}
	p.perm = setup.Rng.Perm(setup.Universe.M())
	p.next = 0
	p.board = setup.Board
	p.src = setup.Rng
	return nil
}

// PrescribedRounds implements sim.Protocol.
func (p *OracleCoop) PrescribedRounds() int { return 0 }

// Probes implements sim.Protocol.
func (p *OracleCoop) Probes(round int, active []int, dst []sim.Probe) []sim.Probe {
	// If some honest player already voted (found a good object), follow it.
	// Oracle players trust honest votes because they magically know who is
	// honest; in this baseline the dishonest players never vote anyway.
	if p.board.NumVotedObjects() > 0 {
		obj := p.board.VotedObjects()[0]
		for _, player := range active {
			dst = append(dst, sim.Probe{Player: player, Object: obj})
		}
		return dst
	}
	for _, player := range active {
		if p.next >= len(p.perm) {
			// Everything probed without success: start over (degenerate
			// universes only; cannot happen when a good object exists).
			p.next = 0
		}
		dst = append(dst, sim.Probe{Player: player, Object: p.perm[p.next]})
		p.next++
	}
	return dst
}
