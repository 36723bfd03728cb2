package server

// Durable restart (Config.Persist): full-service snapshots, write-ahead
// replay, and journal rotation. The contract is exact equivalence — a
// server killed mid-run and rebuilt from its persist store must be
// indistinguishable, to every honest client, from one that merely dropped
// connections for a while:
//
//   - the committed billboard is byte-identical (snapshot + round-buffered
//     replay of committed posts; an uncommitted round is discarded, as the
//     synchrony contract demands, and re-arrives via client retries);
//   - the charged-probe ledger is exact (a probe is charged iff its record
//     is journaled, so replay re-derives counts and costs with no double
//     billing);
//   - every session's dedup window (lastSeq, last response) is restored, so
//     a retried in-flight request either replays its recorded outcome or
//     re-executes exactly once.

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"time"

	"repro/internal/billboard"
	"repro/internal/journal"
	"repro/internal/wire"
)

// sessionSnap is one session's dedup window inside a server snapshot.
// Swarm marks a session the swarm credential opened, for the range
// [Player, PlayerTo); a player's own session is [Player, Player+1), whatever
// PlayerTo says (snapshots taken before every session was a range leave it
// zero).
type sessionSnap struct {
	ID       uint64
	Player   int
	LastSeq  uint64
	LastResp wire.Response
	Swarm    bool
	PlayerTo int
}

// snapOf records sess in a snapshot, answering its last sequence with resp.
func snapOf(sess *session, resp wire.Response) sessionSnap {
	return sessionSnap{
		ID: sess.id, Player: sess.player, LastSeq: sess.lastSeq, LastResp: resp,
		Swarm: sess.swarm, PlayerTo: sess.playerTo,
	}
}

// playerTo returns the end of the snapshotted session's range.
func (ss sessionSnap) playerTo() int {
	if ss.Swarm {
		return ss.PlayerTo
	}
	return ss.Player + 1
}

// session rebuilds the snapshotted session, disconnected and with a loose
// sequence check: the client's counter also advanced over unjournaled reads.
func (ss sessionSnap) session() *session {
	return &session{
		id: ss.ID, player: ss.Player, playerTo: ss.playerTo(),
		lastSeq: ss.LastSeq, lastResp: ss.LastResp, loose: true, swarm: ss.Swarm,
	}
}

// serverSnap is the serialized form of the whole service state at a round
// boundary: the billboard plus everything the billboard alone does not
// capture (membership, expulsions, the probe ledger, session windows).
type serverSnap struct {
	Board      []byte
	Round      int
	Registered []int
	Active     []int
	ForceDone  map[int]int
	Probes     []int
	Cost       []float64
	Satisfied  []bool
	Sessions   []sessionSnap
}

// snapshotLocked serializes the full service state. Only called at a round
// boundary (advanceLocked), so the billboard has no pending posts and
// every in-flight request is one the just-committed round is about to
// answer.
func (s *Server) snapshotLocked() ([]byte, error) {
	// A sharded coordinator has no board of its own (Board stays nil in the
	// snapshot); the lane boards snapshot into their per-shard stores.
	var boardBytes []byte
	if s.board != nil {
		var err error
		boardBytes, err = s.board.Snapshot()
		if err != nil {
			return nil, err
		}
	}
	sn := serverSnap{
		Board:     boardBytes,
		Round:     s.round,
		ForceDone: make(map[int]int, len(s.forceDone)),
		Probes:    append([]int(nil), s.probes...),
		Cost:      append([]float64(nil), s.cost...),
		Satisfied: append([]bool(nil), s.satisfied...),
	}
	for p, ok := range s.registered {
		if ok {
			sn.Registered = append(sn.Registered, p)
		}
	}
	for p, ok := range s.active {
		if ok {
			sn.Active = append(sn.Active, p)
		}
	}
	for p, r := range s.forceDone {
		sn.ForceDone[p] = r
	}
	for _, sess := range s.sessions {
		resp := sess.lastResp
		if sess.executing {
			// The only requests that can be mid-execution at a round commit
			// are arrivals and the committing Done: their response is the new
			// round. lastResp still holds the previous request's reply, so
			// substitute. (An arrival stamped further ahead is still waiting;
			// a client handed this replay re-stamps.)
			resp = wire.Response{Round: s.round}
		}
		sn.Sessions = append(sn.Sessions, snapOf(sess, resp))
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&sn); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// rotateLocked snapshots the service and rotates the persist store so
// recovery replays at most SnapshotEvery rounds of journal. Failures are
// logged, not fatal: rotation bounds replay time, it is never needed for
// correctness (the current segment keeps growing and keeps working).
func (s *Server) rotateLocked() {
	snap, err := s.snapshotLocked()
	if err != nil {
		s.logf("snapshot at round %d failed: %v", s.round, err)
		return
	}
	if err := s.cfg.Persist.Rotate(snap); err != nil {
		s.logf("journal rotation at round %d failed: %v", s.round, err)
		return
	}
	if s.replLog != nil {
		s.replLog.noteRotate(0, snap)
	}
	s.m.snapshots.Inc()
	s.logf("snapshot at round %d (%d bytes): journal truncated", s.round, len(snap))
}

// ForceRotate snapshots and rotates the persist store(s) immediately — the
// replica bootstrap path uses it so a leader starting over recovered state
// folds that state into a snapshot its followers can be seeded from. Only
// meaningful on a durable server at a round boundary (which construction
// time always is).
func (s *Server) ForceRotate() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cfg.Persist == nil {
		return
	}
	if s.sharded() {
		s.rotateShardedLocked()
		return
	}
	s.rotateLocked()
}

// restoreSnapshot loads a serverSnap into a fresh server (construction
// time, no lock needed).
func (s *Server) restoreSnapshot(data []byte) error {
	var sn serverSnap
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&sn); err != nil {
		return err
	}
	n := len(s.cfg.Tokens)
	if len(sn.Probes) != n {
		return fmt.Errorf("snapshot describes %d players, server configured for %d",
			len(sn.Probes), n)
	}
	for _, p := range sn.Registered {
		if err := checkPlayer("snapshot registered", p, n); err != nil {
			return err
		}
	}
	for _, p := range sn.Active {
		if err := checkPlayer("snapshot active", p, n); err != nil {
			return err
		}
	}
	for p := range sn.ForceDone {
		if err := checkPlayer("snapshot force-done", p, n); err != nil {
			return err
		}
	}
	for _, ss := range sn.Sessions {
		if err := checkRange("snapshot session", ss.Player, ss.playerTo(), n); err != nil {
			return err
		}
	}
	if sn.Board != nil {
		board, err := billboard.Restore(sn.Board, nil)
		if err != nil {
			return err
		}
		s.board = board
		s.round = board.Round()
	} else {
		// Sharded coordinator snapshot: the boards live in the lane stores.
		s.round = sn.Round
	}
	for _, p := range sn.Registered {
		s.registerLocked(p)
	}
	for _, p := range sn.Active {
		s.joinLocked(p)
	}
	for p, r := range sn.ForceDone {
		s.forceDone[p] = r
	}
	copy(s.probes, sn.Probes)
	copy(s.cost, sn.Cost)
	copy(s.satisfied, sn.Satisfied)
	for _, ss := range sn.Sessions {
		sess := ss.session()
		s.sessions[ss.ID] = sess
		for p := sess.player; p < sess.playerTo; p++ {
			s.byPlayer[p] = sess
		}
	}
	return nil
}

// recoverFromStore rebuilds the service from Config.Persist: snapshot
// first, then the write-ahead tail. Replay mirrors live execution record
// by record — probes and dones apply immediately (they were charged /
// binding the moment they were journaled), posts, arrivals, and force-done
// decisions bind only with their round marker. A non-empty uncommitted
// tail is discarded and fenced with a rollback marker so the retries that
// re-execute it are not double-applied by a second recovery.
func (s *Server) recoverFromStore(boardCfg billboard.Config) error {
	st := s.cfg.Persist
	start := time.Now()
	hadSnapshot := false
	if snap := st.Snapshot(); snap != nil {
		hadSnapshot = true
		if err := s.restoreSnapshot(snap); err != nil {
			return fmt.Errorf("server: recover snapshot: %w", err)
		}
	} else if s.cfg.Shards <= 1 {
		board, err := billboard.New(boardCfg)
		if err != nil {
			return fmt.Errorf("server: %w", err)
		}
		s.board = board
	}

	u := s.cfg.Universe
	n := len(s.cfg.Tokens)
	replayed := 0
	var pending []journal.Record
	err := journal.ReplayRecords(st.Tail(), func(rec journal.Record) error {
		replayed++
		if err := checkRecord(rec, n); err != nil {
			return err
		}
		switch rec.Kind {
		case journal.RecordPost, journal.RecordBarrier, journal.RecordForceDone:
			pending = append(pending, rec)
		case journal.RecordRollback:
			// A previous recovery already discarded these; their retries
			// were re-journaled after this marker.
			pending = pending[:0]
		case journal.RecordProbe:
			if rec.Object < 0 || rec.Object >= u.M() {
				return fmt.Errorf("probe object %d out of range", rec.Object)
			}
			s.touchLocked(rec.Player)
			s.probes[rec.Player]++
			s.cost[rec.Player] += u.Cost(rec.Object)
			good := u.LocalTesting() && u.IsGood(rec.Object)
			if good {
				s.satisfied[rec.Player] = true
			}
			if sess := s.replaySessionLocked(rec, rec.Player); sess != nil {
				// The recorded response of a probe batch: one result per
				// probe record under its sequence number, in order.
				if rec.Seq != sess.lastSeq {
					sess.lastSeq = rec.Seq
					sess.lastResp = wire.Response{Round: s.round}
				}
				sess.lastResp.ProbeResults = append(sess.lastResp.ProbeResults,
					wire.ProbeRes{Value: u.Value(rec.Object), Good: good})
			}
		case journal.RecordDone:
			s.touchLocked(rec.Player)
			s.deactivateLocked(rec.Player)
			if sess := s.replaySessionLocked(rec, rec.Player); sess != nil {
				if rec.Seq > sess.lastSeq {
					sess.lastSeq = rec.Seq
				}
				sess.lastResp = wire.Response{Round: s.round}
			}
		case journal.RecordSwarmOpen:
			// Registration of a whole swarm block, applied immediately like
			// any registration (expelled players stay expelled).
			sess := s.sessions[rec.Session]
			if sess == nil {
				sess = &session{id: rec.Session, loose: true}
				s.sessions[rec.Session] = sess
			}
			sess.swarm = true
			sess.player, sess.playerTo = rec.Player, rec.PlayerTo
			for p := rec.Player; p < rec.PlayerTo; p++ {
				s.touchLocked(p)
				s.byPlayer[p] = sess
			}
		case journal.RecordEndRound:
			var arrivals []*session
			for _, p := range pending {
				switch p.Kind {
				case journal.RecordPost:
					s.touchLocked(p.Post.Player)
					if s.board == nil {
						return fmt.Errorf("post record in a sharded coordinator journal")
					}
					if err := s.board.Post(p.Post); err != nil {
						return fmt.Errorf("replay post: %v", err)
					}
					if sess := s.replaySessionLocked(p, p.Post.Player); sess != nil {
						sess.lastSeq = p.Seq
					}
				case journal.RecordBarrier:
					if p.Player >= 0 {
						s.touchLocked(p.Player)
					}
					// Player -1: a swarm barrier — all active members of the
					// session arrived at once; membership needs no touch (the
					// swarm-open record already registered the block).
					if sess := s.replaySessionLocked(p, p.Player); sess != nil {
						sess.lastSeq = p.Seq
						arrivals = append(arrivals, sess)
					}
				case journal.RecordForceDone:
					// Decision taken in the round this marker commits.
					s.registerLocked(p.Player)
					s.forceDone[p.Player] = s.round
					s.deactivateLocked(p.Player)
					if sess := s.byPlayer[p.Player]; sess != nil {
						delete(s.sessions, sess.id)
						s.byPlayer[p.Player] = nil
					}
				}
			}
			pending = pending[:0]
			if s.board != nil {
				s.board.EndRound()
			}
			s.round++
			if s.recoveredAdmits != nil {
				// Keep the round's admitted vote pairs: lane recovery tops up
				// a lane that missed this round's seal from exactly this set.
				s.recoveredAdmits[s.round] = rec.Admits
			}
			// A committed arrival answers with the round this marker opened —
			// the response a live server had recorded for those sessions (one
			// stamped further ahead re-stamps on retry).
			for _, sess := range arrivals {
				sess.lastResp = wire.Response{Round: s.round}
			}
		}
		return nil
	})
	if err := s.cutTornTail(st, err); err != nil {
		return fmt.Errorf("server: recover: %w", err)
	}
	if len(pending) > 0 {
		if werr := st.Writer().Rollback(); werr != nil {
			return fmt.Errorf("server: recover: rollback marker: %w", werr)
		}
	}
	s.m.journalReplayed.Add(int64(replayed))
	s.m.replaySeconds.ObserveSince(start)
	if hadSnapshot || replayed > 0 {
		s.logf("recovered round %d from %s: snapshot=%v, %d journal records replayed, %d uncommitted discarded",
			s.round, st.Dir(), hadSnapshot, replayed, len(pending))
	}
	return nil
}

// touchLocked re-derives a registration at recovery: any journaled activity
// proves the player completed a Hello (expelled players stay expelled).
func (s *Server) touchLocked(player int) {
	if s.registered[player] {
		return
	}
	if _, expelled := s.forceDone[player]; expelled {
		s.registerLocked(player)
	} else {
		s.joinLocked(player)
	}
}

// replaySessionLocked finds or rebuilds, at recovery, the session a journal
// record is attributed to; player is the identity the record acts for.
func (s *Server) replaySessionLocked(rec journal.Record, player int) *session {
	if rec.Session == 0 {
		return nil // legacy record with no session attribution
	}
	sess := s.sessions[rec.Session]
	if sess == nil {
		if player < 0 {
			// A swarm barrier sentinel whose session is unknown (its open
			// record should always precede it); nothing to rebuild.
			return nil
		}
		sess = &session{id: rec.Session, player: player, playerTo: player + 1, loose: true}
		s.sessions[rec.Session] = sess
		s.byPlayer[player] = sess
	}
	return sess
}

// cutTornTail ends a store's replay: a torn final frame (ErrTruncated) is
// cut off the wal before recovery appends anything, so the records written
// next are not stranded behind bytes the next replay stops at; any other
// replay error is returned.
func (s *Server) cutTornTail(st *journal.Store, err error) error {
	var torn *journal.TruncatedError
	if !errors.As(err, &torn) {
		return err
	}
	if err := st.Truncate(torn.Complete); err != nil {
		return err
	}
	s.tailCut = true
	s.logf("cut a torn journal tail in %s at byte %d", st.Dir(), torn.Complete)
	return nil
}

// checkRecord validates the player indices a journal record carries against
// the configured player count n before replay uses them: a corrupt or
// foreign journal is a recovery error, never an index panic.
func checkRecord(rec journal.Record, n int) error {
	switch rec.Kind {
	case journal.RecordProbe:
		return checkPlayer("probe record", rec.Player, n)
	case journal.RecordDone:
		return checkPlayer("done record", rec.Player, n)
	case journal.RecordForceDone:
		return checkPlayer("force-done record", rec.Player, n)
	case journal.RecordPost:
		return checkPlayer("post record", rec.Post.Player, n)
	case journal.RecordBarrier:
		if rec.Player == -1 {
			return nil // swarm barrier: all active members of the session
		}
		return checkPlayer("barrier record", rec.Player, n)
	case journal.RecordSwarmOpen:
		return checkRange("swarm-open record", rec.Player, rec.PlayerTo, n)
	}
	return nil
}

// checkPlayer reports a player index outside [0, n).
func checkPlayer(what string, p, n int) error {
	if p < 0 || p >= n {
		return fmt.Errorf("%s: player %d out of range [0, %d)", what, p, n)
	}
	return nil
}

// checkRange reports a player range [from, to) that is empty or leaves
// [0, n).
func checkRange(what string, from, to, n int) error {
	if from < 0 || to > n || from >= to {
		return fmt.Errorf("%s: player range [%d, %d) invalid for %d players", what, from, to, n)
	}
	return nil
}
