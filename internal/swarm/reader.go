package swarm

// The swarm's board view. All of a swarm's players share one committed
// billboard state per round (the synchrony contract), so the driver holds a
// single per-round read cache over the group-0 connection and every
// player's DISTILL schedule reads through it — the reads an N-goroutine
// fleet would issue N times happen once. For advice rounds the driver
// additionally prefetches the round's per-player vote lookups in bulk
// (ReqVoteBatch) before the draw loop, collapsing up to N round-trips into
// a few pipelined frames. The vote reads are held densely, one span per
// player into one flat slice, so a round's reads allocate no map or slice
// per player. The spans are sized by the player count, once per swarm;
// a single player reads through client.Cached instead.

import (
	"fmt"

	"repro/internal/billboard"
	"repro/internal/client"
	"repro/internal/wire"
)

// universe is the sim.PublicUniverse the server advertised in Hello.
type universe struct {
	m            int
	costs        []float64 // the Hello's cost table, read through wire.Cost
	localTesting bool
}

func (u *universe) M() int             { return u.m }
func (u *universe) Cost(i int) float64 { return wire.Cost(u.costs, i) }
func (u *universe) LocalTesting() bool { return u.localTesting }

// boardReader implements billboard.Reader over a swarm connection with a
// per-round cache. Reads happen on the driver's single-threaded sections
// only (schedule advance and the draw loop), never during the per-group
// fan-out. Reader methods cannot return errors, so failures latch into err
// and answer zero values; the driver checks err once per round, exactly
// like the per-player client path checks Client.Err.
type boardReader struct {
	c     *client.Conn
	m     int // the universe's object count, for window reads
	round int
	err   error

	// The round's vote reads, dense by player: player p's votes are
	// votes[spans[p].lo:spans[p].hi], read this round iff spans[p].epoch
	// equals epoch. invalidate bumps epoch instead of clearing the spans,
	// and reuses votes' array.
	epoch int32
	spans []voteSpan
	votes []billboard.Vote

	counts   map[int]int
	negs     map[int]int
	objects  []int
	haveObjs bool

	// fetchVotes scratch, reused across rounds: miss queues the players
	// want named.
	miss  []int
	reqs  []wire.Request
	resps []wire.Response
}

// voteSpan locates one player's votes in boardReader.votes.
type voteSpan struct{ epoch, lo, hi int32 }

var _ billboard.Reader = (*boardReader)(nil)

// newBoardReader returns a reader for a board of n players and m objects.
func newBoardReader(c *client.Conn, round, n, m int) *boardReader {
	r := &boardReader{
		c: c, m: m, round: round, spans: make([]voteSpan, n),
		counts: map[int]int{}, negs: map[int]int{},
	}
	r.invalidate()
	return r
}

// invalidate drops all cached reads; the driver calls it after each round
// barrier.
func (r *boardReader) invalidate() {
	r.epoch++
	r.votes = r.votes[:0]
	clear(r.counts)
	clear(r.negs)
	r.objects = nil
	r.haveObjs = false
}

// call runs one read frame, latching the first failure.
func (r *boardReader) call(req wire.Request) *wire.Response {
	if r.err != nil {
		return nil
	}
	resp, err := r.c.Call(req)
	if err != nil {
		r.err = err
		return nil
	}
	if resp.Round > r.round {
		r.round = resp.Round
	}
	return resp
}

// want queues player p's votes for the next fetchVotes, unless they were
// read or queued this round.
func (r *boardReader) want(p int) {
	if uint(p) >= uint(len(r.spans)) {
		if r.err == nil {
			r.err = fmt.Errorf("swarm: vote read of player %d outside [0, %d)", p, len(r.spans))
		}
		return
	}
	if sp := &r.spans[p]; sp.epoch != r.epoch {
		*sp = voteSpan{epoch: r.epoch}
		r.miss = append(r.miss, p)
	}
}

// fetchVotes bulk-loads the votes of the queued players, a chunk of
// players per frame, pipelined. Players without votes read as empty.
func (r *boardReader) fetchVotes(chunk int) {
	defer func() { r.miss = r.miss[:0] }()
	if r.err != nil || len(r.miss) == 0 {
		return
	}
	r.reqs = r.reqs[:0]
	for lo := 0; lo < len(r.miss); lo += chunk {
		hi := min(lo+chunk, len(r.miss))
		r.reqs = append(r.reqs, wire.Request{Type: wire.ReqVoteBatch, Players: r.miss[lo:hi]})
	}
	r.resps = resize(r.resps, len(r.reqs))
	if err := r.c.Exchange(r.reqs, r.resps); err != nil {
		r.err = err
		return
	}
	// A batch answer lists each player's votes together, so each player's
	// span is one run of the flat slice.
	for i := range r.resps {
		for _, v := range r.resps[i].Votes {
			if uint(v.Player) >= uint(len(r.spans)) || r.spans[v.Player].epoch != r.epoch {
				r.err = fmt.Errorf("swarm: vote batch answered for unrequested player %d", v.Player)
				return
			}
			sp := &r.spans[v.Player]
			if sp.lo == sp.hi {
				sp.lo = int32(len(r.votes))
			}
			r.votes = append(r.votes, billboard.Vote{Player: v.Player, Object: v.Object, Round: v.Round, Value: v.Value})
			sp.hi = int32(len(r.votes))
		}
		if r.resps[i].Round > r.round {
			r.round = r.resps[i].Round
		}
	}
}

// Round returns the last round number observed from the server.
func (r *boardReader) Round() int { return r.round }

// Votes returns player p's committed votes, cached for the round. The
// slice aliases the reader's round cache: it is valid until invalidate.
func (r *boardReader) Votes(player int) []billboard.Vote {
	if uint(player) >= uint(len(r.spans)) || r.spans[player].epoch != r.epoch {
		r.want(player)
		r.fetchVotes(1)
		if r.err != nil {
			return nil
		}
	}
	sp := r.spans[player]
	return r.votes[sp.lo:sp.hi:sp.hi]
}

// HasVote reports whether player p has a committed vote.
func (r *boardReader) HasVote(player int) bool { return len(r.Votes(player)) > 0 }

// VoteCount returns object i's committed vote count, cached for the round.
func (r *boardReader) VoteCount(object int) int { return r.count(r.counts, wire.ReqVoteCount, object) }

// NegativeCount returns object i's negative-report count, cached.
func (r *boardReader) NegativeCount(object int) int { return r.count(r.negs, wire.ReqNegCount, object) }

// count answers a per-object count read from cache, or by a frame of the
// given type whose answer it caches.
func (r *boardReader) count(cache map[int]int, typ wire.ReqType, object int) int {
	if n, ok := cache[object]; ok {
		return n
	}
	n := 0
	if resp := r.call(wire.Request{Type: typ, Object: object}); resp != nil {
		n = resp.Count
	}
	cache[object] = n
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

// CountVotesInWindow reads the vote events per object in [fromRound,
// toRound) into wc. Windows are not cached: the schedule reads each once.
func (r *boardReader) CountVotesInWindow(fromRound, toRound int, wc *billboard.WindowCounts) {
	var counts []wire.CountMsg
	if resp := r.call(wire.Request{Type: wire.ReqWindow, From: fromRound, To: toRound}); resp != nil {
		counts = resp.Counts
	}
	if err := client.FillWindow(wc, r.m, counts); err != nil && r.err == nil {
		r.err = err
	}
}
