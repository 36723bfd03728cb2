package server

// Sharded billboard service (Config.Shards > 1): the board is partitioned
// by object id across S shard lanes, each with its own billboard (full
// (players, objects) dimensions, holding only the objects wire.Shard assigns
// it) and — when the server is durable — its own journal store under
// <persist-dir>/shard-%03d. The coordinator (the Server proper) keeps
// everything that is global by nature: sessions and membership, the round
// counter and barrier, the charged-probe ledger, and the vote admission
// state. Every lane access runs under s.mu.
//
// Data plane. Posts travel on the primary connection, as on an unsharded
// server, and postBatchLocked hands a sharded batch to shardPostBatchLocked:
// it checks the whole batch, waits out any down lane the batch touches,
// writes each lane's part to that lane's store in one write (write-ahead),
// and buffers the part as pending. Each post is stamped with its index from
// a per-round counter, so a player's posts keep their posting order across
// lanes.
//
// Commit (the per-round shard barrier). When every active player has
// arrived at the round barrier, the coordinator checks that every lane is up
// (the freeze phase), gathers the pending posts, orders them by
// (player, index) — which preserves each player's own posting order, the
// only order FirstPositive vote derivation depends on — and runs the global
// vote admission pass: a positive post becomes a vote iff the player's
// global budget f is not exhausted and the (player, object) pair has not
// voted before. The admitted set is installed as every lane board's
// VoteFilter, the coordinator's round marker (carrying the admitted pairs)
// is journaled as the commit point, the posts are fed to their lane boards,
// and each lane is sealed (its own round marker + board EndRound). A round
// is therefore observable only once every shard has sealed it.
//
// Recovery. The coordinator store replays as in the unsharded server
// (probes, barriers, dones; no posts — those live in lane stores). Each
// lane store then replays independently: its round markers carry the
// admitted pairs, so a single lane reproduces exactly the votes the global
// pass granted without consulting its siblings, and its committed posts
// re-derive registrations and session sequence numbers as committed posts
// do on an unsharded server; a force-done player's session stays deleted
// (see rederiveLanePostLocked). A lane that missed its final seal (a crash
// between the coordinator's commit point and the lane seal) is topped up
// from its write-ahead tail using the coordinator's recorded admissions,
// then fenced with the missing seal. What is left of the tail belongs to the
// round the coordinator rolled back: it is discarded and fenced with a
// rollback marker, as the coordinator's own uncommitted tail is. One rule
// holds on every topology: an acknowledged post survives iff its round
// commits, and clients re-send a rolled-back round's posts with its arrival.
//
// Single-shard fault injection. KillShard drops a lane's in-memory state
// and closes its store mid-run; RestartShard rebuilds the lane from its
// snapshot + journal tail, pending tail included: the coordinator is alive
// and rolled nothing back. While a lane is down, posts and reads for its
// objects block and the round cannot commit — safety is preserved at the
// cost of liveness, which RestartShard restores.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/billboard"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/wire"
)

// stampedPost is one accepted, uncommitted lane post: the report plus the
// index the server stamped on it, which orders it within its player's round.
type stampedPost struct {
	post  billboard.Post
	index int
}

// admitKey identifies a (player, object) vote pair in the admission maps.
type admitKey struct {
	player int
	object int
}

// pbucket holds one player's accepted, uncommitted posts on one lane, in
// index order: the server stamps indices in accept order, and a restarted
// lane restores them in journal order, which is the same.
type pbucket struct {
	posts []stampedPost
}

// lane is one shard of a sharded server: a board partition, its pending
// posts and its store. Every access runs under s.mu.
type lane struct {
	k     int
	board *billboard.Board

	// Accepted, uncommitted posts, bucketed per player and kept ordered by
	// index at accept time — the pre-sorted runs the commit's k-way merge
	// consumes instead of globally re-sorting every round. Emptied buckets
	// keep their capacity across rounds (steady-state accepts allocate
	// nothing); posters lists the players with nonempty buckets.
	buckets  map[int]*pbucket
	posters  []int
	nPending int

	store *journal.Store  // nil when the server is not durable
	jw    *journal.Writer // store's writer; nil when not durable

	down bool // KillShard'd; RestartShard clears

	mPosts *obs.Counter
	mSeals *obs.Counter
}

// addPending buffers one accepted post in its player's bucket.
func (ln *lane) addPending(sp stampedPost) {
	b := ln.buckets[sp.post.Player]
	if b == nil {
		b = &pbucket{}
		ln.buckets[sp.post.Player] = b
	}
	if len(b.posts) == 0 {
		ln.posters = append(ln.posters, sp.post.Player)
	}
	b.posts = append(b.posts, sp)
	ln.nPending++
}

// resetPending empties the lane's buckets at a seal, keeping bucket and
// poster capacity for the next round.
func (ln *lane) resetPending() {
	for _, p := range ln.posters {
		b := ln.buckets[p]
		b.posts = b.posts[:0]
	}
	ln.posters = ln.posters[:0]
	ln.nPending = 0
}

// sharded reports whether this server runs shard lanes (Config.Shards > 1).
func (s *Server) sharded() bool { return len(s.lanes) > 0 }

// laneFor returns the lane owning an object per the shared shard map.
func (s *Server) laneFor(obj int) *lane {
	return s.lanes[wire.Shard(obj, len(s.lanes))]
}

// votesCap is the effective global vote budget f.
func (s *Server) votesCap() int {
	if s.cfg.VotesPerPlayer <= 0 {
		return 1
	}
	return s.cfg.VotesPerPlayer
}

// admitFilter is every lane board's VoteFilter: a positive post becomes a
// vote only if the current commit (or replay) round admitted the pair.
func (s *Server) admitFilter(player, object int) bool {
	return s.admitSet[admitKey{player, object}]
}

// shardDir names lane k's persist directory under the coordinator's.
func shardDir(dir string, k int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d", k))
}

// laneSnap is the serialized form of one lane at a round boundary: its
// board. (Snapshots written before posts rode the primary connection also
// hold a Sessions field; gob skips it.)
type laneSnap struct {
	Board []byte
}

// setupShards builds the lane array (and, when durable, opens the per-shard
// stores and recovers each lane). Called from New after the coordinator
// store has been recovered, so s.round is final and admitHist maps each
// replayed round to its admitted pairs.
func (s *Server) setupShards(boardCfg billboard.Config, admitHist map[int][]journal.Admit) error {
	shards := s.cfg.Shards
	boardCfg.VoteFilter = s.admitFilter
	s.votesTaken = make([]int, len(s.cfg.Tokens))
	s.votedPair = make(map[admitKey]bool)
	s.lanes = make([]*lane, shards)
	s.laneParts = make([][]int, shards)
	// Commit scratch, pooled for the life of the server (see
	// commitShardedLocked): steady-state rounds reuse these instead of
	// allocating per round.
	s.posterSeen = make([]bool, len(s.cfg.Tokens))
	s.mergeHeads = make([]*pbucket, shards)
	s.mergeCurs = make([]int, shards)
	for k := range s.lanes {
		ln := &lane{k: k, buckets: make(map[int]*pbucket)}
		if s.cfg.Metrics != nil {
			ln.mPosts = s.cfg.Metrics.Counter(
				fmt.Sprintf(`server_shard_posts_total{shard="%03d"}`, k),
				"posts accepted per shard lane")
			ln.mSeals = s.cfg.Metrics.Counter(
				fmt.Sprintf(`server_shard_seals_total{shard="%03d"}`, k),
				"rounds sealed per shard lane")
		}
		s.lanes[k] = ln
		if s.cfg.Persist == nil {
			board, err := billboard.New(boardCfg)
			if err != nil {
				return fmt.Errorf("server: shard %d: %w", k, err)
			}
			board.SetMetrics(s.cfg.Metrics)
			ln.board = board
			continue
		}
		// Whole-server recovery: roll the open round back, and let committed
		// posts re-derive what the coordinator's journal does not hold.
		if err := s.recoverLane(ln, boardCfg, admitHist, false, s.rederiveLanePostLocked); err != nil {
			return fmt.Errorf("server: shard %d: %w", k, err)
		}
	}
	// Rebuild the global admission state from the recovered boards: the
	// budget each player has consumed and the pairs that already voted.
	for _, ln := range s.lanes {
		for p := 0; p < len(s.cfg.Tokens); p++ {
			for _, v := range ln.board.VotesView(p) {
				s.votesTaken[p]++
				s.votedPair[admitKey{p, v.Object}] = true
			}
		}
	}
	return nil
}

// recoverLane opens (or reopens) a lane's store and rebuilds the lane:
// snapshot, then the journal tail, whose committed rounds honor their
// recorded admissions. A lane behind the coordinator's round (it missed its
// final seal in a crash) is topped up from the coordinator's admissions and
// fenced with the missing marker. committed, when set, sees every committed
// post fed to the board. The rest of the tail belongs to the open round.
// With keepPending (RestartShard) it is restored as pending, since the
// coordinator is alive and rolled nothing back; otherwise (whole-server
// recovery) it is discarded and fenced with a rollback marker, as the
// coordinator's uncommitted tail is. Requires s.round final; caller holds
// s.mu or is construction-time.
func (s *Server) recoverLane(ln *lane, boardCfg billboard.Config, admitHist map[int][]journal.Admit, keepPending bool, committed func(journal.Record)) error {
	st, err := journal.OpenStore(shardDir(s.cfg.Persist.Dir(), ln.k), s.cfg.Persist.Policy())
	if err != nil {
		return err
	}
	if s.cfg.laneStore != nil {
		// Replication mirror, installed before the top-up and rollback writes
		// below so a lane's recovery markers replicate like any journal byte.
		s.cfg.laneStore(ln.k, st)
	}
	ln.store, ln.jw = st, st.Writer()
	var board *billboard.Board
	if snap := st.Snapshot(); snap != nil {
		var lsn laneSnap
		if err := gob.NewDecoder(bytes.NewReader(snap)).Decode(&lsn); err != nil {
			return fmt.Errorf("lane snapshot: %w", err)
		}
		board, err = billboard.Restore(lsn.Board, s.admitFilter)
		if err != nil {
			return fmt.Errorf("lane snapshot: %w", err)
		}
	} else {
		board, err = billboard.New(boardCfg)
		if err != nil {
			return err
		}
	}
	board.SetMetrics(s.cfg.Metrics)

	var pending []journal.Record
	commit := func(admits []journal.Admit) error {
		s.setAdmitsLocked(admits)
		for _, rec := range pending {
			if err := board.Post(rec.Post); err != nil {
				return fmt.Errorf("replay post: %v", err)
			}
			if committed != nil {
				committed(rec)
			}
		}
		pending = pending[:0]
		board.EndRound()
		return nil
	}
	replayed := 0
	err = journal.ReplayRecords(st.Tail(), func(rec journal.Record) error {
		replayed++
		switch rec.Kind {
		case journal.RecordPost:
			pending = append(pending, rec)
		case journal.RecordRollback:
			pending = pending[:0]
		case journal.RecordEndRound:
			return commit(rec.Admits)
		}
		return nil
	})
	if err := s.cutTornTail(st, err); err != nil {
		return fmt.Errorf("lane recover: %w", err)
	}
	// Top up: the coordinator committed rounds this lane never sealed (a
	// crash between the coordinator's commit point and this lane's seal).
	// The lane's write-ahead tail holds exactly those rounds' posts.
	for board.Round() < s.round {
		target := board.Round() + 1
		admits, ok := admitHist[target]
		if !ok {
			return fmt.Errorf("lane recover: no recorded admissions for round %d", target)
		}
		if err := commit(admits); err != nil {
			return fmt.Errorf("lane recover: top-up: %w", err)
		}
		if err := ln.jw.EndRoundAdmits(admits); err != nil {
			return fmt.Errorf("topup seal: %w", err)
		}
	}
	ln.board = board
	ln.buckets = make(map[int]*pbucket)
	ln.posters, ln.nPending = nil, 0
	discarded := 0
	if keepPending {
		for _, rec := range pending {
			ln.addPending(stampedPost{post: rec.Post, index: rec.Index})
		}
	} else if len(pending) > 0 {
		discarded = len(pending)
		if err := ln.jw.Rollback(); err != nil {
			return fmt.Errorf("lane recover: rollback marker: %w", err)
		}
	}
	s.m.journalReplayed.Add(int64(replayed))
	if replayed > 0 || st.Snapshot() != nil {
		s.logf("shard %d recovered to round %d: %d journal records replayed, %d pending restored, %d uncommitted discarded",
			ln.k, board.Round(), replayed, ln.nPending, discarded)
	}
	return nil
}

// rederiveLanePostLocked re-derives, at whole-server recovery, what a
// committed lane post proves and the coordinator's journal does not hold:
// its player's registration and its session's sequence number, as a
// committed post does on an unsharded server. Lane replay runs after the
// coordinator's, which has already deleted every session a force-done
// expulsion took with it; such a session stays deleted. So a post rebuilds
// a missing session only for a player that was never expelled and is bound
// to no session, one whose only records are lane posts.
func (s *Server) rederiveLanePostLocked(rec journal.Record) {
	p := rec.Post.Player
	s.touchLocked(p)
	if s.sessions[rec.Session] == nil {
		if _, expelled := s.forceDone[p]; expelled || s.byPlayer[p] != nil {
			return
		}
	}
	if sess := s.replaySessionLocked(rec, p); sess != nil && rec.Seq > sess.lastSeq {
		sess.lastSeq = rec.Seq
	}
}

// setAdmitsLocked installs a round's admitted pairs as the active VoteFilter
// set (live commit and replay share it; both are single-threaded under the
// coordinator's locks).
func (s *Server) setAdmitsLocked(admits []journal.Admit) {
	if s.admitSet == nil {
		s.admitSet = make(map[admitKey]bool, len(admits))
	} else {
		clear(s.admitSet)
	}
	for _, a := range admits {
		s.admitSet[admitKey{a.Player, a.Object}] = true
	}
}

// commitShardedLocked commits the round across every lane: freeze, admit,
// journal the commit point, seal. Returns false — leaving the round open —
// when a lane is down; RestartShard re-runs the advance. Caller holds s.mu.
//
// The pipeline runs per-lane work per-lane. The admission pass consumes
// positives in global (player, index) order without materializing a sorted
// gather: lanes keep per-player buckets ordered by index at accept time, so
// visiting players in ascending order and k-way-merging each player's
// buckets by index (ties to the lowest lane id — the gather order the old
// global sort.SliceStable preserved) reproduces the serial order exactly.
// The seal phase — feed to the lane board, lane round marker, board
// EndRound — is lane-local by construction and runs concurrently across
// lanes, with the admits marker encoded once and the same bytes fsynced to
// every lane store in parallel (the replica mirror tee takes its own leaf
// lock, so parallel lanes tee safely). Cross-player
// feed order is irrelevant to the board (votes and counts are per
// (player, object); per-pair order is bucket order), so per-lane feeding is
// digest-identical to the old globally-sorted feed — pinned by the
// determinism golden. Per-round scratch (posters, merge cursors, admit
// slices, marker frame) is pooled on the Server, so steady-state rounds are
// allocation-flat in shard count.
func (s *Server) commitShardedLocked() bool {
	var t0, tp time.Time
	if s.m.enabled {
		t0 = time.Now()
		tp = t0
	}
	for _, ln := range s.lanes {
		if ln.down {
			return false
		}
	}
	tp = s.m.phaseTick(phaseFreeze, tp)
	// Global vote admission: consume each player's budget f and the
	// first-vote-per-object rule in (player, index) order across all lanes.
	posters := s.commitPosters[:0]
	for _, ln := range s.lanes {
		for _, p := range ln.posters {
			if !s.posterSeen[p] {
				s.posterSeen[p] = true
				posters = append(posters, p)
			}
		}
	}
	sort.Ints(posters)
	// Double-buffered admit slice: s.lastAdmits keeps the previous round's
	// admissions alive for RestartShard's top-up history, so commits
	// alternate between two backing arrays instead of reallocating.
	admits := s.admitsScratch[s.round&1][:0]
	f := s.votesCap()
	heads, curs := s.mergeHeads, s.mergeCurs
	for _, p := range posters {
		s.posterSeen[p] = false
		nl := 0
		for _, ln := range s.lanes {
			if b := ln.buckets[p]; b != nil && len(b.posts) > 0 {
				heads[nl], curs[nl] = b, 0
				nl++
			}
		}
		for {
			best := -1
			for i := 0; i < nl; i++ {
				if curs[i] >= len(heads[i].posts) {
					continue
				}
				if best < 0 || heads[i].posts[curs[i]].index < heads[best].posts[curs[best]].index {
					best = i
				}
			}
			if best < 0 {
				break
			}
			sp := &heads[best].posts[curs[best]]
			curs[best]++
			if !sp.post.Positive {
				continue
			}
			k := admitKey{p, sp.post.Object}
			if s.votedPair[k] || s.votesTaken[p] >= f {
				continue
			}
			s.votesTaken[p]++
			s.votedPair[k] = true
			admits = append(admits, journal.Admit{Player: p, Object: sp.post.Object})
		}
	}
	s.commitPosters = posters[:0]
	s.admitsScratch[s.round&1] = admits
	s.setAdmitsLocked(admits)
	tp = s.m.phaseTick(phaseAdmit, tp)
	// Encode the round's admits marker once; every lane seal below reuses
	// the bytes, and so does the coordinator's commit point when it carries
	// no replication annotation.
	var frame []byte
	if s.jw != nil || s.lanes[0].jw != nil {
		if b, err := journal.AppendEndRoundFrame(s.markerFrame[:0], admits, 0, 0); err == nil {
			s.markerFrame, frame = b, b
		}
	}
	// Durable commit point: the coordinator's marker carries the admitted
	// pairs, so recovery can top up a lane that misses its seal below.
	if s.cfg.Mode == ModeEpoch {
		s.m.epochSeals.Inc()
	}
	if s.jw != nil {
		if s.replLog != nil {
			_ = s.jw.EndRoundQuorum(admits, s.replTerm, s.replQuorum)
		} else if frame != nil {
			_ = s.jw.WriteEndRoundFrame(frame)
		}
	}
	tp = s.m.phaseTick(phaseJournal, tp)
	// Seal every lane: feed its posts to its board, its own durable marker,
	// then the board commit. Lane seals are mutually independent (own board,
	// own store file), so they run concurrently while this goroutine holds
	// s.mu; the round becomes observable (round++, broadcast) only after
	// every lane sealed — the per-round shard barrier.
	seal := func(ln *lane) {
		for _, p := range ln.posters {
			for i := range ln.buckets[p].posts {
				// Validated at accept; the board re-checks ranges only.
				_ = ln.board.Post(ln.buckets[p].posts[i].post)
			}
		}
		if ln.jw != nil && frame != nil {
			_ = ln.jw.WriteEndRoundFrame(frame)
		}
		ln.board.EndRound()
		ln.resetPending()
		ln.mSeals.Inc()
	}
	if len(s.lanes) == 1 {
		seal(s.lanes[0])
	} else {
		var wg sync.WaitGroup
		for _, ln := range s.lanes {
			wg.Add(1)
			go func(ln *lane) {
				defer wg.Done()
				seal(ln)
			}(ln)
		}
		wg.Wait()
	}
	if s.m.enabled {
		now := time.Now()
		s.m.commitPhase[phaseSeal].Observe(now.Sub(tp).Seconds())
		s.m.commitSeconds.Observe(now.Sub(t0).Seconds())
	}
	s.lastAdmits, s.lastAdmitsRound = admits, s.round+1
	s.round++
	s.postIndex = 0
	s.m.rounds.Inc()
	// Rotation must happen before s.mu is released: lane posts accepted
	// after the seal would land in the old wal segment and be lost to its
	// truncation. Lanes rotate first, the coordinator last, so the
	// coordinator's snapshot never claims rounds a lane snapshot is missing.
	if s.cfg.Persist != nil && !s.closed && s.cfg.SnapshotEvery > 0 && s.round%s.cfg.SnapshotEvery == 0 {
		s.rotateShardedLocked()
	}
	return true
}

// rotateShardedLocked snapshots and rotates every lane store and then the
// coordinator store. Failures are logged, never fatal (rotation bounds
// replay, it is not needed for correctness). Caller holds s.mu, at a round
// boundary (all pending buffers empty).
func (s *Server) rotateShardedLocked() {
	for _, ln := range s.lanes {
		boardBytes, err := ln.board.Snapshot()
		if err != nil {
			s.logf("shard %d snapshot at round %d failed: %v", ln.k, s.round, err)
			return
		}
		lsn := laneSnap{Board: boardBytes}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&lsn); err != nil {
			s.logf("shard %d snapshot at round %d failed: %v", ln.k, s.round, err)
			return
		}
		if err := ln.store.Rotate(buf.Bytes()); err != nil {
			s.logf("shard %d rotation at round %d failed: %v", ln.k, s.round, err)
			return
		}
		if s.replLog != nil {
			s.replLog.noteRotate(1+ln.k, buf.Bytes())
		}
	}
	s.rotateLocked() // coordinator snapshot (board-less) + rotation
}

// shardPostBatchLocked accepts a sharded server's post batch, whose
// players postBatchLocked has range-checked: check every object, wait out
// any down lane the batch touches, then write each lane's part to that
// lane's store in one write and buffer it as pending, each post stamped
// with its index from the round's counter. Posts commit at the next round
// seal. As on an unsharded server the batch is not transactional past the
// checks: a failed lane write buffers nothing on that lane and ends the
// batch with an error, leaving the parts already written buffered. Caller
// holds s.mu.
func (s *Server) shardPostBatchLocked(sess *session, req *wire.Request) wire.Response {
	m := s.cfg.Universe.M()
	for i, p := range req.Posts {
		if p.Object < 0 || p.Object >= m {
			return wire.Response{Err: fmt.Sprintf("batch post %d/%d: object %d out of range", i+1, len(req.Posts), p.Object)}
		}
	}
	for s.touchesDownLaneLocked(req.Posts) {
		if s.closed {
			return wire.Response{Err: errServerClosed}
		}
		s.cond.Wait()
	}
	// Split the batch by lane. The scratch is safe to share: nothing below
	// releases s.mu before the parts are consumed.
	parts := s.laneParts
	for k := range parts {
		parts[k] = parts[k][:0]
	}
	for i, p := range req.Posts {
		k := wire.Shard(p.Object, len(s.lanes))
		parts[k] = append(parts[k], i)
	}
	base := s.postIndex
	s.postIndex += len(req.Posts)
	for k, part := range parts {
		if len(part) == 0 {
			continue
		}
		ln := s.lanes[k]
		if ln.jw != nil {
			ln.jw.Begin()
			for _, i := range part {
				_ = ln.jw.AppendAt(sess.id, req.Seq, base+i, lanePost(req.Posts[i])) // a batch's write error surfaces at Flush
			}
			if err := ln.jw.Flush(); err != nil {
				return wire.Response{Err: fmt.Sprintf("journal: %v", err)}
			}
		}
		for _, i := range part {
			ln.addPending(stampedPost{post: lanePost(req.Posts[i]), index: base + i})
		}
		ln.mPosts.Add(int64(len(part)))
	}
	if req.EndRound {
		return s.arriveLocked(sess, req.Seq, req.Epoch, true)
	}
	return wire.Response{Round: s.round}
}

// lanePost is the board post a batch entry carries.
func lanePost(p wire.PostMsg) billboard.Post {
	return billboard.Post{Player: p.Player, Object: p.Object, Value: p.Value, Positive: p.Positive}
}

// touchesDownLaneLocked reports whether a post of the batch belongs to a
// lane KillShard took down. Caller holds s.mu.
func (s *Server) touchesDownLaneLocked(posts []wire.PostMsg) bool {
	for _, ln := range s.lanes {
		if !ln.down {
			continue
		}
		for _, p := range posts {
			if s.laneFor(p.Object) == ln {
				return true
			}
		}
	}
	return false
}

// waitLaneUpLocked blocks (releasing s.mu via the condition variable) while
// a lane is down, so a read of one of its objects stalls instead of
// failing or serving partial state. Returns false if the server closed
// while waiting. Caller holds s.mu.
func (s *Server) waitLaneUpLocked(ln *lane) bool {
	for ln.down && !s.closed {
		s.cond.Wait()
	}
	return !ln.down
}

// Scatter-gather reads (s.mu held). Lane boards mutate only under s.mu
// (accept, commit, recovery), so the reads need no other lock. A read that
// spans lanes calls waitLanesUpLocked once, before it reads any lane, so
// every lane it merges is read at the same round.

// waitLanesUpLocked blocks (releasing s.mu via the condition variable)
// until every lane is up at once. Returns false if the server closed while
// waiting. Caller holds s.mu.
func (s *Server) waitLanesUpLocked() bool {
	for !s.closed {
		down := false
		for _, ln := range s.lanes {
			down = down || ln.down
		}
		if !down {
			return true
		}
		s.cond.Wait()
	}
	return false
}

// shardWindowLocked merges per-lane window counts (disjoint object sets, so
// the merge is a union). Every lane is up (waitLanesUpLocked).
func (s *Server) shardWindowLocked(from, to int) map[int]int {
	merged := make(map[int]int)
	for _, ln := range s.lanes {
		for obj, n := range ln.board.CountVotesInWindow(from, to) {
			merged[obj] += n
		}
	}
	return merged
}

// shardVotedObjectsLocked merges the voted-object sets (disjoint, each
// sorted) into one ascending list. Every lane is up (waitLanesUpLocked).
func (s *Server) shardVotedObjectsLocked() []int {
	var out []int
	for _, ln := range s.lanes {
		out = append(out, ln.board.VotedObjects()...)
	}
	sort.Ints(out)
	return out
}

// KillShard simulates a single-shard crash on a durable sharded server:
// the lane's in-memory state is dropped and its store closed, as if the
// lane process died. Posts and reads for its objects block, and the round
// cannot commit until RestartShard. The chaos tests in internal/dist use
// this to assert that a mid-round shard bounce leaves the run
// byte-identical.
func (s *Server) KillShard(k int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.sharded() {
		return fmt.Errorf("server: not sharded")
	}
	if s.cfg.Persist == nil {
		return fmt.Errorf("server: KillShard requires a persist store")
	}
	if k < 0 || k >= len(s.lanes) {
		return fmt.Errorf("server: shard %d out of range [0, %d)", k, len(s.lanes))
	}
	ln := s.lanes[k]
	if ln.down {
		return fmt.Errorf("server: shard %d already down", k)
	}
	ln.down = true
	ln.board = nil
	ln.buckets, ln.posters, ln.nPending = nil, nil, 0
	if err := ln.store.Close(); err != nil {
		s.logf("shard %d store close: %v", k, err)
	}
	s.logf("shard %d killed at round %d", k, s.round)
	return nil
}

// RestartShard rebuilds a killed lane from its persist directory (snapshot
// + journal tail, including the acknowledged pending posts of the open
// round) and lets stalled commits, reads, and posts proceed.
func (s *Server) RestartShard(k int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.sharded() || k < 0 || k >= len(s.lanes) {
		return fmt.Errorf("server: no such shard %d", k)
	}
	ln := s.lanes[k]
	if !ln.down {
		return fmt.Errorf("server: shard %d is not down", k)
	}
	boardCfg := billboard.Config{
		Players:        len(s.cfg.Tokens),
		Objects:        s.cfg.Universe.M(),
		Mode:           billboard.FirstPositive,
		VotesPerPlayer: s.cfg.VotesPerPlayer,
		VoteFilter:     s.admitFilter,
	}
	// A kill and a commit both run under s.mu, so the lane's journal is
	// sealed through the coordinator's round and the top-up history is never
	// needed; the last commit's admissions are kept in case it is.
	admitHist := map[int][]journal.Admit{s.lastAdmitsRound: s.lastAdmits}
	// Keep the open round's pending tail; sessions and registrations never
	// left the live coordinator.
	if err := s.recoverLane(ln, boardCfg, admitHist, true, nil); err != nil {
		return fmt.Errorf("server: restart shard %d: %w", k, err)
	}
	ln.down = false
	s.m.shardRestarts.Inc()
	s.logf("shard %d restarted at round %d", k, s.round)
	// The round may have been waiting on this lane's seal; blocked reads
	// and posts certainly were.
	s.advanceLocked()
	s.cond.Broadcast()
	return nil
}
