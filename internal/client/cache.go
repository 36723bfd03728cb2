package client

import (
	"fmt"

	"repro/internal/billboard"
	"repro/internal/wire"
)

// Cached is a player's billboard.Reader over a Client: it sends its read
// frames on the client's session and caches each answer for the round.
// Billboard state only changes at round boundaries (the synchrony
// contract), so every read in a round can be served from the first
// answer; the distributed player invalidates the cache after each
// Barrier. This cuts the advice-heavy protocols' frame count by roughly
// the number of reads per round. Windows are not cached: a protocol reads
// each window once.
//
// Reader methods cannot return errors: a failed read answers a zero value
// and is recorded in the client's Err, which the driver checks once per
// round. A read the server refuses leaves the session usable.
type Cached struct {
	c *Client

	votes    map[int][]billboard.Vote
	counts   map[int]int
	negs     map[int]int
	objects  []int
	haveObjs bool
}

var _ billboard.Reader = (*Cached)(nil)

// NewCached returns a reader over c. The caller must Invalidate after
// every round barrier.
func NewCached(c *Client) *Cached {
	return &Cached{
		c:     c,
		votes: make(map[int][]billboard.Vote), counts: make(map[int]int), negs: make(map[int]int),
	}
}

// Client returns the underlying connection (for Probe/Post/Barrier/Done).
func (cc *Cached) Client() *Client { return cc.c }

// Invalidate drops all cached reads; call after each Barrier.
func (cc *Cached) Invalidate() {
	clear(cc.votes)
	clear(cc.counts)
	clear(cc.negs)
	cc.objects = nil
	cc.haveObjs = false
}

// read runs one read frame on the client's session. A failure answers nil
// and is recorded in the client's Err.
func (cc *Cached) read(req wire.Request) *wire.Response {
	resp, err := cc.c.call(req)
	if err != nil {
		cc.c.noteReadErr(err)
		return nil
	}
	return resp
}

// Round returns the last observed round.
func (cc *Cached) Round() int { return cc.c.Round() }

// Votes returns player p's votes, cached for the round. The slice is the
// cache's: valid until Invalidate, and not to be mutated.
func (cc *Cached) Votes(player int) []billboard.Vote {
	if v, ok := cc.votes[player]; ok {
		return v
	}
	var votes []billboard.Vote
	if resp := cc.read(wire.Request{Type: wire.ReqVoteBatch, Players: []int{player}}); resp != nil && len(resp.Votes) > 0 {
		votes = make([]billboard.Vote, len(resp.Votes))
		for i, v := range resp.Votes {
			votes[i] = billboard.Vote{Player: v.Player, Object: v.Object, Round: v.Round, Value: v.Value}
		}
	}
	cc.votes[player] = votes
	return votes
}

// HasVote reports whether player p holds a vote.
func (cc *Cached) HasVote(player int) bool { return len(cc.Votes(player)) > 0 }

// VoteCount returns object i's vote count, cached for the round.
func (cc *Cached) VoteCount(object int) int { return cc.count(cc.counts, wire.ReqVoteCount, object) }

// NegativeCount returns object i's negative-report count, cached.
func (cc *Cached) NegativeCount(object int) int { return cc.count(cc.negs, wire.ReqNegCount, object) }

// count answers a per-object count read from cache, or by a frame of the
// given type whose answer it caches.
func (cc *Cached) count(cache map[int]int, typ wire.ReqType, object int) int {
	if n, ok := cache[object]; ok {
		return n
	}
	n := 0
	if resp := cc.read(wire.Request{Type: typ, Object: object}); resp != nil {
		n = resp.Count
	}
	cache[object] = n
	return n
}

// VotedObjects returns the voted-object set, cached for the round.
func (cc *Cached) VotedObjects() []int {
	if !cc.haveObjs {
		if resp := cc.read(wire.Request{Type: wire.ReqVotedObjects}); resp != nil {
			cc.objects = resp.Objects
		}
		cc.haveObjs = true
	}
	return cc.objects
}

// NumVotedObjects returns the number of voted objects.
func (cc *Cached) NumVotedObjects() int { return len(cc.VotedObjects()) }

// CountVotesInWindow reads the vote events per object in [fromRound,
// toRound) into wc.
func (cc *Cached) CountVotesInWindow(fromRound, toRound int, wc *billboard.WindowCounts) {
	var counts []wire.CountMsg
	if resp := cc.read(wire.Request{Type: wire.ReqWindow, From: fromRound, To: toRound}); resp != nil {
		counts = resp.Counts
	}
	if err := FillWindow(wc, cc.c.m, counts); err != nil {
		cc.c.noteReadErr(err)
	}
}

// FillWindow resets wc for a universe of m objects and adds a window
// answer's counts to it. A count of an object outside [0, m) is a
// malformed answer: wc is left empty and the error returned.
func FillWindow(wc *billboard.WindowCounts, m int, counts []wire.CountMsg) error {
	wc.Reset(m)
	for _, c := range counts {
		if uint(c.Object) >= uint(m) {
			wc.Reset(m)
			return fmt.Errorf("client: window answer counts object %d outside [0, %d)", c.Object, m)
		}
		wc.Add(c.Object, c.Count)
	}
	return nil
}
