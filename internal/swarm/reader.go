package swarm

// The swarm's board view. All of a swarm's players share one committed
// billboard state per round (the synchrony contract), so the driver holds a
// single per-round read cache over the group-0 connection and every
// player's DISTILL schedule reads through it — the reads an N-goroutine
// fleet would issue N times happen once. For advice rounds the driver
// additionally prefetches the round's per-player vote lookups in bulk
// (ReqVoteBatch) before the draw loop, collapsing up to N round-trips into
// a few pipelined frames.

import (
	"repro/internal/billboard"
	"repro/internal/wire"
)

// universe is the sim.PublicUniverse the server advertised in Hello.
type universe struct {
	m            int
	costs        []float64
	localTesting bool
}

func (u *universe) M() int             { return u.m }
func (u *universe) Cost(i int) float64 { return u.costs[i] }
func (u *universe) LocalTesting() bool { return u.localTesting }

// boardReader implements billboard.Reader over a swarm connection with a
// per-round cache. Reads happen on the driver's single-threaded sections
// only (schedule advance and the draw loop), never during the per-group
// fan-out. Reader methods cannot return errors, so failures latch into err
// and answer zero values; the driver checks err once per round, exactly
// like the per-player client path checks Client.Err.
type boardReader struct {
	c     *conn
	round int
	err   error

	votes    map[int][]billboard.Vote
	counts   map[int]int
	negs     map[int]int
	windows  map[[2]int]map[int]int
	objects  []int
	haveObjs bool
}

var _ billboard.Reader = (*boardReader)(nil)

func newBoardReader(c *conn, round int) *boardReader {
	r := &boardReader{c: c, round: round}
	r.invalidate()
	return r
}

// invalidate drops all cached reads; the driver calls it after each round
// barrier.
func (r *boardReader) invalidate() {
	r.votes = make(map[int][]billboard.Vote)
	r.counts = make(map[int]int)
	r.negs = make(map[int]int)
	r.windows = make(map[[2]int]map[int]int)
	r.objects = nil
	r.haveObjs = false
}

// call runs one read frame, latching the first failure.
func (r *boardReader) call(req wire.Request) *wire.Response {
	if r.err != nil {
		return nil
	}
	resp, err := r.c.one(req, false)
	if err != nil {
		r.err = err
		return nil
	}
	if resp.Round > r.round {
		r.round = resp.Round
	}
	return resp
}

// prefetchVotes bulk-loads the votes of every listed player that is not
// already cached, a chunk of players per frame, pipelined. Players without
// votes are cached as empty.
func (r *boardReader) prefetchVotes(players []int, chunk int) {
	if r.err != nil {
		return
	}
	miss := make([]int, 0, len(players))
	for _, p := range players {
		if _, ok := r.votes[p]; !ok {
			miss = append(miss, p)
		}
	}
	if len(miss) == 0 {
		return
	}
	var reqs []wire.Request
	for lo := 0; lo < len(miss); lo += chunk {
		hi := min(lo+chunk, len(miss))
		reqs = append(reqs, wire.Request{Type: wire.ReqVoteBatch, Players: miss[lo:hi]})
	}
	resps := make([]wire.Response, len(reqs))
	if err := r.c.exchange(reqs, resps, false); err != nil {
		r.err = err
		return
	}
	for _, p := range miss {
		r.votes[p] = nil
	}
	for i := range resps {
		for _, v := range resps[i].Votes {
			r.votes[v.Player] = append(r.votes[v.Player],
				billboard.Vote{Player: v.Player, Object: v.Object, Round: v.Round, Value: v.Value})
		}
		if resps[i].Round > r.round {
			r.round = resps[i].Round
		}
	}
}

// Round returns the last round number observed from the server.
func (r *boardReader) Round() int { return r.round }

// Votes returns player p's committed votes, cached for the round.
func (r *boardReader) Votes(player int) []billboard.Vote {
	if v, ok := r.votes[player]; ok {
		return v
	}
	var votes []billboard.Vote
	if resp := r.call(wire.Request{Type: wire.ReqVotes, OfPlayer: player}); resp != nil {
		votes = make([]billboard.Vote, len(resp.Votes))
		for i, v := range resp.Votes {
			votes[i] = billboard.Vote{Player: v.Player, Object: v.Object, Round: v.Round, Value: v.Value}
		}
	}
	r.votes[player] = votes
	return votes
}

// HasVote reports whether player p has a committed vote.
func (r *boardReader) HasVote(player int) bool { return len(r.Votes(player)) > 0 }

// VoteCount returns object i's committed vote count, cached for the round.
func (r *boardReader) VoteCount(object int) int {
	if n, ok := r.counts[object]; ok {
		return n
	}
	n := 0
	if resp := r.call(wire.Request{Type: wire.ReqVoteCount, Object: object}); resp != nil {
		n = resp.Count
	}
	r.counts[object] = n
	return n
}

// NegativeCount returns object i's negative-report count, cached.
func (r *boardReader) NegativeCount(object int) int {
	if n, ok := r.negs[object]; ok {
		return n
	}
	n := 0
	if resp := r.call(wire.Request{Type: wire.ReqNegCount, Object: object}); resp != nil {
		n = resp.Count
	}
	r.negs[object] = n
	return n
}

// VotedObjects returns the objects currently holding votes, cached.
func (r *boardReader) VotedObjects() []int {
	if !r.haveObjs {
		if resp := r.call(wire.Request{Type: wire.ReqVotedObjects}); resp != nil {
			r.objects = resp.Objects
		}
		r.haveObjs = true
	}
	return r.objects
}

// NumVotedObjects returns the number of objects holding votes.
func (r *boardReader) NumVotedObjects() int { return len(r.VotedObjects()) }

// CountVotesInWindow counts vote events per object in [fromRound, toRound).
func (r *boardReader) CountVotesInWindow(fromRound, toRound int) map[int]int {
	key := [2]int{fromRound, toRound}
	if m, ok := r.windows[key]; ok {
		return m
	}
	m := map[int]int{}
	if resp := r.call(wire.Request{Type: wire.ReqWindow, From: fromRound, To: toRound}); resp != nil && resp.Counts != nil {
		m = resp.Counts
	}
	r.windows[key] = m
	return m
}
