// Package billboard implements the shared public billboard of the paper's
// model (§2.1): an append-only log of probe reports, each reliably tagged
// with the posting player's identity and a timestamp (the round number).
//
// The billboard also implements the vote discipline DISTILL relies on
// (§4): each player's *votes* are derived from its positive reports under
// one of two rules —
//
//   - FirstPositive (local testing): a player's votes are its first f
//     positive reports on distinct objects; all later positive reports are
//     ignored. The paper uses f = 1; §4.1 generalizes to f votes.
//   - BestValue (no local testing, §5.3): a player's single vote is the
//     highest-value object it has reported so far, and may change as the
//     execution progresses.
//
// Synchrony: posts made during a round are buffered and only become visible
// after EndRound, so all players observing the board within one round see
// the same state, matching the synchronous model of §2.1. Adaptive
// adversaries may inspect the uncommitted buffer via Pending.
package billboard

import (
	"fmt"
	"slices"

	"repro/internal/obs"
)

// Reader is the read-only view of a billboard that honest protocols
// consume: committed state only, which changes at round boundaries alone
// (§2.1), so every read is valid for the rest of the round. *Board
// implements it locally; internal/client and internal/swarm implement it
// against a remote billboard server, so the same protocol code runs
// in-process and distributed. Each concept has one read.
type Reader interface {
	// Round returns the current round number.
	Round() int
	// Votes returns player p's current committed votes as a read-only
	// view, valid until the next round commits. Its capacity ends at its
	// length, so an append cannot write into the reader's storage.
	Votes(player int) []Vote
	// HasVote reports whether player p has at least one committed vote.
	HasVote(player int) bool
	// VoteCount returns the number of current committed votes on object i.
	VoteCount(object int) int
	// NegativeCount returns the number of committed negative reports on
	// object i.
	NegativeCount(object int) int
	// VotedObjects returns the distinct objects holding votes, ascending.
	VotedObjects() []int
	// NumVotedObjects returns the number of distinct objects with votes.
	NumVotedObjects() int
	// CountVotesInWindow fills wc with the number of vote events per object
	// with round in [fromRound, toRound), resetting it first.
	CountVotesInWindow(fromRound, toRound int, wc *WindowCounts)
}

// VoteMode selects how votes are derived from posts.
type VoteMode int

const (
	// FirstPositive derives votes from the first f positive reports of each
	// player (the §4 local-testing rule).
	FirstPositive VoteMode = iota + 1
	// BestValue derives each player's single vote as its highest-value
	// report so far (the §5.3 no-local-testing rule).
	BestValue
)

// String returns the mode name.
func (m VoteMode) String() string {
	switch m {
	case FirstPositive:
		return "first-positive"
	case BestValue:
		return "best-value"
	default:
		return fmt.Sprintf("VoteMode(%d)", int(m))
	}
}

// Post is one report on the billboard: player reports the value it observed
// probing an object. Positive marks the report as a recommendation ("this
// object is good"); it is meaningful only in FirstPositive mode. Round is
// assigned by the board at commit time.
type Post struct {
	Player   int
	Object   int
	Value    float64
	Positive bool
	Round    int
}

// Vote is a player's current recommendation of an object.
type Vote struct {
	Player int
	Object int
	Round  int // round the vote was (last) cast
	Value  float64
}

// VoteEvent records that a player's vote landed on an object at a given
// round. In FirstPositive mode each vote produces exactly one event (votes
// never move); in BestValue mode a player produces an event whenever its
// vote improves or is re-affirmed by probing its current best object again.
// Events are what the per-iteration vote counts ℓ_t(i) of Figure 1 count.
type VoteEvent struct {
	Player int
	Object int
	Round  int
}

// Config parameterizes a Board.
type Config struct {
	Players int // number of players n (required, > 0)
	Objects int // number of objects m (required, > 0)
	// Mode selects the vote rule; defaults to FirstPositive.
	Mode VoteMode
	// VotesPerPlayer is the cap f on positive votes per player in
	// FirstPositive mode; defaults to 1 (the paper's base rule). Ignored in
	// BestValue mode (always exactly one, movable).
	VotesPerPlayer int
	// KeepLog retains every post verbatim (including negative reports).
	// Costs memory proportional to the total number of probes; only the
	// vote structures are needed by the algorithms, so this defaults off.
	KeepLog bool
	// VoteFilter, when non-nil, vetoes vote derivation: a positive report
	// by player p on object o only becomes a vote if VoteFilter(p, o) is
	// true. Models honest-side vote-admission rules such as the §6
	// object-ownership extension ("ignore votes for objects the voter
	// owns"); the report itself is still posted.
	VoteFilter func(player, object int) bool
}

// Board is the shared billboard. It is not safe for concurrent use; the
// engine serializes access within a round.
type Board struct {
	cfg   Config
	round int

	// pending buffers the round's posts, in posting order, in blocks kept
	// across rounds, so a buffered post is never copied: blocks before
	// pending[cur] are full, and the ones after it are empty spares.
	// nPositive counts the positive posts among the nPending; EndRound
	// sizes the event log's growth from it.
	pending   [][]Post
	cur       int
	nPending  int
	nPositive int

	log []Post // full post log if cfg.KeepLog

	// votesByPlayer[p] holds player p's committed votes (<= f entries in
	// FirstPositive mode; <= 1 entry in BestValue mode). A player's first
	// vote carves its slice, with room for min(f, maxCarve) votes, from
	// slab, the unused tail of the last block of shared vote storage
	// (slabBlock is that block's size).
	votesByPlayer [][]Vote
	slab          []Vote
	slabBlock     int
	// voteCount[i] is the number of current committed votes on object i.
	voteCount []int
	// negCount[i] is the number of committed negative reports on object i
	// (FirstPositive mode only; the base algorithm ignores it, the §6
	// negative-recommendation extension consumes it).
	negCount []int
	// votedObjects is the number of objects with voteCount > 0.
	votedObjects int

	// events is the append-ordered vote event log; rounds are
	// non-decreasing, so window queries slice it via eventIndex.
	events []VoteEvent
	// eventIndex[r] is the number of events committed in rounds < r, for
	// r in [0, round]. Maintained at EndRound, so a window query is two
	// O(1) lookups instead of a binary search; derived state, excluded
	// from Snapshot and Digest.
	eventIndex []int
	// pendingScratch backs Pending's returned copy, reused across calls.
	pendingScratch []Post

	// indexRebuilds counts full eventIndex reconstructions (Restore); kept
	// unconditionally so SetMetrics can backfill a counter attached after a
	// recovery.
	indexRebuilds int64

	// Metric handles (nil — single-branch no-ops — until SetMetrics).
	mPosts         *obs.Counter
	mWindowQueries *obs.Counter
	mIndexRebuilds *obs.Counter
}

// SetMetrics registers the board's metrics in reg (nil is a no-op) and
// starts recording: billboard_posts_total (accepted posts, committed or
// still pending), billboard_window_queries_total (CountVotesInWindow
// calls), and billboard_index_rebuilds_total
// (full event-offset-index reconstructions, i.e. snapshot/journal
// recoveries — already-performed rebuilds are backfilled). Recording is
// one nil check plus one atomic add per event, so the hot paths stay
// within the committed benchmark budget.
func (b *Board) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	b.mPosts = reg.Counter("billboard_posts_total", "reports accepted by the billboard")
	b.mWindowQueries = reg.Counter("billboard_window_queries_total", "vote-window queries served")
	b.mIndexRebuilds = reg.Counter("billboard_index_rebuilds_total", "full event-index reconstructions (recoveries)")
	b.mIndexRebuilds.Add(b.indexRebuilds)
}

// New validates cfg and returns an empty board at round 0.
func New(cfg Config) (*Board, error) {
	if cfg.Players <= 0 {
		return nil, fmt.Errorf("billboard: Players must be > 0, got %d", cfg.Players)
	}
	if cfg.Objects <= 0 {
		return nil, fmt.Errorf("billboard: Objects must be > 0, got %d", cfg.Objects)
	}
	if cfg.Mode == 0 {
		cfg.Mode = FirstPositive
	}
	if cfg.Mode != FirstPositive && cfg.Mode != BestValue {
		return nil, fmt.Errorf("billboard: unknown vote mode %d", cfg.Mode)
	}
	if cfg.VotesPerPlayer == 0 {
		cfg.VotesPerPlayer = 1
	}
	if cfg.VotesPerPlayer < 0 {
		return nil, fmt.Errorf("billboard: VotesPerPlayer must be >= 0, got %d", cfg.VotesPerPlayer)
	}
	return &Board{
		cfg:           cfg,
		votesByPlayer: make([][]Vote, cfg.Players),
		voteCount:     make([]int, cfg.Objects),
		negCount:      make([]int, cfg.Objects),
		eventIndex:    []int{0},
	}, nil
}

// Round returns the current round number (the number of EndRound calls).
func (b *Board) Round() int { return b.round }

// Mode returns the vote rule in effect.
func (b *Board) Mode() VoteMode { return b.cfg.Mode }

// Post buffers a report; it becomes visible after EndRound. Posts with an
// out-of-range player or object are rejected with an error (the billboard
// reliably tags identity, so a Byzantine player cannot spoof another id —
// the engine passes the authenticated player id).
func (b *Board) Post(p Post) error {
	if p.Player < 0 || p.Player >= b.cfg.Players {
		return fmt.Errorf("billboard: player %d out of range [0, %d)", p.Player, b.cfg.Players)
	}
	if p.Object < 0 || p.Object >= b.cfg.Objects {
		return fmt.Errorf("billboard: object %d out of range [0, %d)", p.Object, b.cfg.Objects)
	}
	p.Round = b.round
	if b.cur == len(b.pending) || len(b.pending[b.cur]) == cap(b.pending[b.cur]) {
		b.nextPendingBlock()
	}
	b.pending[b.cur] = append(b.pending[b.cur], p)
	b.nPending++
	if p.Positive {
		b.nPositive++
	}
	b.mPosts.Inc()
	return nil
}

// Block sizes of the pending-post buffer and the vote slab: the first block
// holds firstBlock entries and each later one twice its predecessor, up to
// maxBlock. A small board allocates little, and a round of k posts
// allocates O(log k) blocks before it reaches the cap.
const (
	firstBlock = 64
	maxBlock   = 4096
)

// nextBlock returns the size of the block allocated after one of size prev
// (0 for the first).
func nextBlock(prev int) int {
	if prev == 0 {
		return firstBlock
	}
	return min(2*prev, maxBlock)
}

// nextPendingBlock moves the pending buffer to its next empty block,
// allocating one when no spare is left.
func (b *Board) nextPendingBlock() {
	if b.cur < len(b.pending) {
		b.cur++
	}
	if b.cur == len(b.pending) {
		prev := 0
		if b.cur > 0 {
			prev = cap(b.pending[b.cur-1])
		}
		b.pending = append(b.pending, make([]Post, 0, nextBlock(prev)))
	}
}

// maxCarve caps the vote slots a player's first vote carves. A player that
// goes on to hold more votes leaves the slab: its slice's capacity ends at
// its own slots, so append moves it to a slice of its own. Vote storage
// thus grows with the votes players hold, not with f, which may be huge
// (a very large f stands for "no cap").
const maxCarve = 4

// carve returns an empty vote slice with room for min(f, maxCarve) votes,
// cut from the shared vote slab.
func (b *Board) carve(f int) []Vote {
	n := min(f, maxCarve)
	if len(b.slab) < n {
		b.slabBlock = nextBlock(b.slabBlock)
		b.slab = make([]Vote, b.slabBlock)
	}
	votes := b.slab[:0:n]
	b.slab = b.slab[n:]
	return votes
}

// Pending returns the posts buffered in the current round, in posting
// order. This is the adaptive adversary's view of in-flight honest actions;
// honest protocol code must not use it. The returned slice is backed by a
// scratch buffer owned by the board (adversaries call this every round):
// it is valid until the next Pending call and must not be mutated.
// Callers that need to retain it across calls must copy.
func (b *Board) Pending() []Post {
	b.pendingScratch = b.pendingScratch[:0]
	for _, blk := range b.pending {
		b.pendingScratch = append(b.pendingScratch, blk...)
	}
	return b.pendingScratch
}

// EndRound commits the round's buffered posts in posting order and
// advances the round counter. The event log grows at most once, by the
// most events the round can add: one per positive post (per post in
// BestValue mode).
func (b *Board) EndRound() {
	grow := b.nPositive
	if b.cfg.Mode == BestValue {
		grow = b.nPending
	}
	b.events = slices.Grow(b.events, grow)
	for i, blk := range b.pending {
		for _, p := range blk {
			b.commit(p)
		}
		b.pending[i] = blk[:0]
	}
	b.cur, b.nPending, b.nPositive = 0, 0, 0
	b.round++
	b.eventIndex = append(b.eventIndex, len(b.events))
}

func (b *Board) commit(p Post) {
	if b.cfg.KeepLog {
		b.log = append(b.log, p)
	}
	switch b.cfg.Mode {
	case FirstPositive:
		if !p.Positive {
			b.negCount[p.Object]++
			return
		}
		if b.cfg.VoteFilter != nil && !b.cfg.VoteFilter(p.Player, p.Object) {
			return // vetoed by the vote-admission rule; report only
		}
		votes := b.votesByPlayer[p.Player]
		if len(votes) >= b.cfg.VotesPerPlayer {
			return // vote budget exhausted; report ignored
		}
		for _, v := range votes {
			if v.Object == p.Object {
				return // duplicate vote for the same object; ignored
			}
		}
		if votes == nil {
			votes = b.carve(b.cfg.VotesPerPlayer)
		}
		v := Vote{Player: p.Player, Object: p.Object, Round: p.Round, Value: p.Value}
		b.votesByPlayer[p.Player] = append(votes, v)
		b.bumpObject(p.Object)
		b.events = append(b.events, VoteEvent{Player: p.Player, Object: p.Object, Round: p.Round})
	case BestValue:
		votes := b.votesByPlayer[p.Player]
		switch {
		case len(votes) == 0:
			v := Vote{Player: p.Player, Object: p.Object, Round: p.Round, Value: p.Value}
			b.votesByPlayer[p.Player] = append(b.carve(1), v)
			b.bumpObject(p.Object)
			b.events = append(b.events, VoteEvent{Player: p.Player, Object: p.Object, Round: p.Round})
		case p.Value > votes[0].Value:
			// Vote moves to the strictly better object.
			old := votes[0].Object
			if old != p.Object {
				b.dropObject(old)
				b.bumpObject(p.Object)
			}
			votes[0] = Vote{Player: p.Player, Object: p.Object, Round: p.Round, Value: p.Value}
			b.events = append(b.events, VoteEvent{Player: p.Player, Object: p.Object, Round: p.Round})
		case p.Object == votes[0].Object:
			// Re-affirmation: the player probed its current best again.
			// State is unchanged but the event counts toward this window's
			// ℓ_t so that sustained support is visible per iteration.
			votes[0].Round = p.Round
			b.events = append(b.events, VoteEvent{Player: p.Player, Object: p.Object, Round: p.Round})
		}
	}
}

func (b *Board) bumpObject(obj int) {
	if b.voteCount[obj] == 0 {
		b.votedObjects++
	}
	b.voteCount[obj]++
}

func (b *Board) dropObject(obj int) {
	b.voteCount[obj]--
	if b.voteCount[obj] == 0 {
		b.votedObjects--
	}
}

// Votes returns player p's committed votes without copying. The slice
// aliases board state: it is valid until the next EndRound and must not be
// mutated. Its capacity ends at its length, so an append cannot write into
// the player's vote storage.
func (b *Board) Votes(player int) []Vote {
	votes := b.votesByPlayer[player]
	return votes[:len(votes):len(votes)]
}

// HasVote reports whether player p has at least one committed vote.
func (b *Board) HasVote(player int) bool {
	return len(b.votesByPlayer[player]) > 0
}

// VoteCount returns the number of current committed votes on object i.
func (b *Board) VoteCount(object int) int { return b.voteCount[object] }

// NegativeCount returns the number of committed negative reports on object
// i (FirstPositive mode).
func (b *Board) NegativeCount(object int) int { return b.negCount[object] }

// VotedObjects returns the distinct objects with at least one committed
// vote, in increasing object order. This is the set S of Step 1.2.
func (b *Board) VotedObjects() []int {
	out := make([]int, 0, b.votedObjects)
	for i, c := range b.voteCount {
		if c > 0 {
			out = append(out, i)
		}
	}
	return out
}

// NumVotedObjects returns the number of distinct objects holding votes.
func (b *Board) NumVotedObjects() int { return b.votedObjects }

// TotalVotes returns the total number of committed current votes.
func (b *Board) TotalVotes() int {
	total := 0
	for _, votes := range b.votesByPlayer {
		total += len(votes)
	}
	return total
}

// eventOffset returns the number of committed events with round < r, via
// the per-round offset index (O(1); no scan, no binary search).
func (b *Board) eventOffset(r int) int {
	switch {
	case r <= 0:
		return 0
	case r >= len(b.eventIndex):
		// All committed events have round < b.round.
		return len(b.events)
	default:
		return b.eventIndex[r]
	}
}

// CountVotesInWindow fills wc with the per-object vote-event counts of
// [fromRound, toRound), reusing wc's buffers (zero allocations once warm).
// This realizes the shared variable ℓ_t(i) of Figure 1: votes an object
// received during iteration t.
func (b *Board) CountVotesInWindow(fromRound, toRound int, wc *WindowCounts) {
	b.mWindowQueries.Inc()
	wc.Reset(b.cfg.Objects)
	events := b.WindowEvents(fromRound, toRound)
	for i := range events {
		wc.Add(events[i].Object, 1)
	}
}

// WindowEvents returns the vote events with round in [fromRound, toRound)
// without copying. The slice aliases the event log: it is stable under
// appends but must not be mutated; copy to retain past further commits.
func (b *Board) WindowEvents(fromRound, toRound int) []VoteEvent {
	lo, hi := b.eventOffset(fromRound), b.eventOffset(toRound)
	if hi < lo {
		hi = lo
	}
	return b.events[lo:hi]
}

// Log returns the full post log if KeepLog was enabled, else nil. The
// returned slice is a copy.
func (b *Board) Log() []Post {
	if !b.cfg.KeepLog {
		return nil
	}
	out := make([]Post, len(b.log))
	copy(out, b.log)
	return out
}

var _ Reader = (*Board)(nil)
