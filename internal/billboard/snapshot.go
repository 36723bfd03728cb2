package billboard

import (
	"bytes"
	"cmp"
	"encoding/gob"
	"fmt"
	"slices"
	"strconv"
)

// snapshotState is the serialized form of a Board's committed state.
// Pending (uncommitted) posts are deliberately excluded: per the synchrony
// contract they were never visible, so a snapshot always lands on a round
// boundary.
type snapshotState struct {
	Players        int
	Objects        int
	Mode           VoteMode
	VotesPerPlayer int
	Round          int
	VotesByPlayer  [][]Vote
	NegCount       []int
	Events         []VoteEvent
	Log            []Post
	KeepLog        bool
}

// Snapshot serializes the board's committed state (votes, vote events with
// their round timestamps, negative counts, the optional full log, and the
// round counter). Together with a journal of the rounds that follow, it
// reconstructs the exact board — the compaction story for long-running
// billboard services.
func (b *Board) Snapshot() ([]byte, error) {
	if b.nPending != 0 {
		return nil, fmt.Errorf("billboard: snapshot with %d uncommitted posts; call EndRound first", b.nPending)
	}
	st := snapshotState{
		Players:        b.cfg.Players,
		Objects:        b.cfg.Objects,
		Mode:           b.cfg.Mode,
		VotesPerPlayer: b.cfg.VotesPerPlayer,
		Round:          b.round,
		VotesByPlayer:  b.votesByPlayer,
		NegCount:       b.negCount,
		Events:         b.events,
		Log:            b.log,
		KeepLog:        b.cfg.KeepLog,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		return nil, fmt.Errorf("billboard: snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// Digest returns a canonical serialization of the committed state: two
// boards holding the same votes, negative counts, and vote events produce
// byte-identical digests regardless of the order in which posts arrived
// within rounds. (Snapshot, by contrast, preserves arrival order, which
// varies with client interleaving in a networked run.) Uncommitted pending
// posts are excluded, as in Snapshot. The chaos tests in internal/dist use
// this to assert a faulty run converged to exactly the fault-free state.
//
// The canonical order is votes by (round, object) per player, negative
// counts by object, and events by (round, player, object). The digest is
// built in one presized buffer: a player's votes are sorted in reused
// scratch only when it holds more than one, and the events are sorted in
// one copy of the event log.
func (b *Board) Digest() []byte {
	votes, events := b.TotalVotes(), len(b.events)
	// Presize for the longest ids: a vote line holds 19 more bytes (its
	// words, spaces and newline, and a short float), an event line 12.
	var num [20]byte
	ids := 0
	for _, x := range [...]int{b.cfg.Players, b.cfg.Objects, b.round} {
		ids += len(strconv.AppendInt(num[:0], int64(x), 10))
	}
	buf := make([]byte, 0, 64+votes*(ids+19)+events*(ids+12))
	buf = append(buf, "round "...)
	buf = strconv.AppendInt(buf, int64(b.round), 10)
	buf = append(buf, " mode "...)
	buf = strconv.AppendInt(buf, int64(b.cfg.Mode), 10)
	buf = append(buf, " f "...)
	buf = strconv.AppendInt(buf, int64(b.cfg.VotesPerPlayer), 10)
	buf = append(buf, '\n')

	var scratch []Vote
	for p := 0; p < b.cfg.Players; p++ {
		held := b.votesByPlayer[p]
		if len(held) > 1 {
			scratch = append(scratch[:0], held...)
			held = scratch
			slices.SortFunc(held, func(a, c Vote) int {
				if a.Round != c.Round {
					return cmp.Compare(a.Round, c.Round)
				}
				return cmp.Compare(a.Object, c.Object)
			})
		}
		for _, v := range held {
			buf = append(buf, "vote p"...)
			buf = strconv.AppendInt(buf, int64(p), 10)
			buf = append(buf, " o"...)
			buf = strconv.AppendInt(buf, int64(v.Object), 10)
			buf = append(buf, " r"...)
			buf = strconv.AppendInt(buf, int64(v.Round), 10)
			buf = append(buf, " v"...)
			buf = strconv.AppendFloat(buf, v.Value, 'g', -1, 64) // fmt's %g
			buf = append(buf, '\n')
		}
	}
	for obj := 0; obj < b.cfg.Objects; obj++ {
		if n := b.negCount[obj]; n != 0 {
			buf = append(buf, "neg o"...)
			buf = strconv.AppendInt(buf, int64(obj), 10)
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, int64(n), 10)
			buf = append(buf, '\n')
		}
	}
	sorted := slices.Clone(b.events)
	slices.SortFunc(sorted, func(a, c VoteEvent) int {
		if a.Round != c.Round {
			return cmp.Compare(a.Round, c.Round)
		}
		if a.Player != c.Player {
			return cmp.Compare(a.Player, c.Player)
		}
		return cmp.Compare(a.Object, c.Object)
	})
	for _, e := range sorted {
		buf = append(buf, "event p"...)
		buf = strconv.AppendInt(buf, int64(e.Player), 10)
		buf = append(buf, " o"...)
		buf = strconv.AppendInt(buf, int64(e.Object), 10)
		buf = append(buf, " r"...)
		buf = strconv.AppendInt(buf, int64(e.Round), 10)
		buf = append(buf, '\n')
	}
	return buf
}

// Restore rebuilds a board from a Snapshot. A VoteFilter (a function, not
// serializable) is not restored: the board comes back without one.
func Restore(data []byte) (*Board, error) {
	var st snapshotState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return nil, fmt.Errorf("billboard: restore: %w", err)
	}
	b, err := New(Config{
		Players:        st.Players,
		Objects:        st.Objects,
		Mode:           st.Mode,
		VotesPerPlayer: st.VotesPerPlayer,
		KeepLog:        st.KeepLog,
	})
	if err != nil {
		return nil, fmt.Errorf("billboard: restore: %w", err)
	}
	b.round = st.Round
	b.votesByPlayer = st.VotesByPlayer
	if b.votesByPlayer == nil {
		b.votesByPlayer = make([][]Vote, st.Players)
	}
	if st.NegCount != nil {
		b.negCount = st.NegCount
	}
	b.events = st.Events
	b.log = st.Log
	// Rebuild the derived per-object counters from the vote state.
	for _, votes := range b.votesByPlayer {
		for _, v := range votes {
			b.bumpObject(v.Object)
		}
	}
	// Rebuild the derived per-round event-offset index (events carry
	// non-decreasing rounds, all < b.round).
	b.eventIndex = make([]int, b.round+1)
	idx := 0
	for r := 1; r <= b.round; r++ {
		for idx < len(b.events) && b.events[idx].Round < r {
			idx++
		}
		b.eventIndex[r] = idx
	}
	b.indexRebuilds++
	return b, nil
}
