package server

// Sharded billboard service (Config.Shards > 1): the board is partitioned
// by object id across S independent shard lanes, each with its own mutex,
// its own billboard (full (players, objects) dimensions, holding only the
// objects wire.Shard assigns it), its own committed-round read cache, and —
// when the server is durable — its own journal store under
// <persist-dir>/shard-%03d. The coordinator (the Server proper, under s.mu)
// keeps everything that is global by nature: sessions and membership, the
// round counter and barrier, the charged-probe ledger, and the vote
// admission state.
//
// Data plane. A v4 client opens one lane connection per shard (Hello with
// Lane set) and pipelines its per-shard post batches concurrently; a lane
// request takes only its lane's mutex, so posts to different shards never
// contend. Lane batches are write-ahead journaled and buffered as pending;
// they carry the client-assigned batch index of each post.
//
// Commit (the per-round shard barrier). When every active player has
// arrived at the round barrier, the coordinator freezes all lanes (taking
// every lane mutex), gathers the pending posts, sorts them by
// (player, index) — which preserves each player's own posting order, the
// only order FirstPositive vote derivation depends on — and runs the global
// vote admission pass: a positive post becomes a vote iff the player's
// global budget f is not exhausted and the (player, object) pair has not
// voted before. The admitted set is installed as every lane board's
// VoteFilter, the coordinator's round marker (carrying the admitted pairs)
// is journaled as the commit point, the posts are fed to their lane boards,
// and each lane is sealed (its own round marker + board EndRound). A round
// is therefore observable only once every shard has sealed it — the commit
// critical section holds all lane locks until then.
//
// Recovery. The coordinator store replays as in the unsharded server
// (probes, barriers, dones; no posts — those live in lane stores). Each
// lane store then replays independently: its round markers carry the
// admitted pairs, so a single lane reproduces exactly the votes the global
// pass granted without consulting its siblings. A lane that missed its
// final seal (a crash between the coordinator's commit point and the lane
// seal) is topped up from its write-ahead tail using the coordinator's
// recorded admissions, then fenced with the missing seal. A lane's pending
// tail after its last seal is NOT discarded: lane batches were acknowledged
// when journaled (clients do not resend them with the next barrier), so
// they are restored as pending and commit with the re-driven round.
//
// Single-shard fault injection. KillShard drops a lane's in-memory state
// and closes its store mid-run; RestartShard rebuilds the lane from its
// snapshot + journal tail, exactly as a whole-server restart would. While
// a lane is down its data-plane connections are dropped (clients retry
// with backoff, as against a restarting server), coordinator-side reads
// and posts for its objects block, and the round cannot commit — safety is
// preserved at the cost of liveness, which RestartShard restores.

import (
	"bytes"
	"encoding/gob"
	"errors"
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
// client-assigned batch index that orders it within its player's round.
type stampedPost struct {
	post  billboard.Post
	index int
}

// admitKey identifies a (player, object) vote pair in the admission maps.
type admitKey struct {
	player int
	object int
}

// pbucket holds one player's accepted, uncommitted posts on one lane.
// Honest clients deliver a lane batch in index order, so posts arrive
// pre-sorted and the commit merge reads them as-is; a byzantine client
// shuffling its indices only clears sorted, and the bucket is stable-sorted
// once at commit — the same order sort.SliceStable over a global gather
// produced, at per-bucket cost.
type pbucket struct {
	posts  []stampedPost
	sorted bool // posts currently in nondecreasing index (and arrival) order
}

// lane is one shard of a sharded server: an independent post-accept path
// guarded by its own mutex.
type lane struct {
	k  int
	mu chan struct{} // 1-buffered channel as mutex: lockable with ordering helpers

	board    *billboard.Board
	sessions map[uint64]*session

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

	// Committed-round read cache, invalidated at every seal; consulted by
	// the coordinator's scatter-gather reads under s.mu.
	cacheWindows map[[2]int]map[int]int

	down bool // KillShard'd; RestartShard clears

	mPosts *obs.Counter
	mSeals *obs.Counter
}

func (ln *lane) lock()   { ln.mu <- struct{}{} }
func (ln *lane) unlock() { <-ln.mu }

// addPending buffers one accepted post in its player's bucket. Caller holds
// the lane lock.
func (ln *lane) addPending(sp stampedPost) {
	b := ln.buckets[sp.post.Player]
	if b == nil {
		b = &pbucket{sorted: true}
		ln.buckets[sp.post.Player] = b
	}
	if len(b.posts) == 0 {
		b.sorted = true
		ln.posters = append(ln.posters, sp.post.Player)
	} else if b.sorted && b.posts[len(b.posts)-1].index > sp.index {
		b.sorted = false
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
		b.sorted = true
	}
	ln.posters = ln.posters[:0]
	ln.nPending = 0
}

// invalidateCache drops the lane's committed-round read cache (at seal).
func (ln *lane) invalidateCache() { ln.cacheWindows = nil }

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
// board plus its sessions' dedup windows (lane sessions live here, not in
// the coordinator snapshot, so a lane restart is self-contained).
type laneSnap struct {
	Board    []byte
	Sessions []sessionSnap
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
	// Commit scratch, pooled for the life of the server (see
	// commitShardedLocked): steady-state rounds reuse these instead of
	// allocating per round.
	s.posterSeen = make([]bool, len(s.cfg.Tokens))
	s.mergeHeads = make([]*pbucket, shards)
	s.mergeCurs = make([]int, shards)
	for k := range s.lanes {
		ln := &lane{
			k:        k,
			mu:       make(chan struct{}, 1),
			sessions: make(map[uint64]*session),
			buckets:  make(map[int]*pbucket),
		}
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
		if err := s.recoverLane(ln, boardCfg, admitHist); err != nil {
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
// snapshot, then the journal tail — committed rounds honor their recorded
// admissions; the pending tail is restored as pending, not discarded (lane
// batches were acknowledged when journaled). A lane behind the
// coordinator's round (it missed its final seal in a crash) is topped up
// from the coordinator's admissions and fenced with the missing marker.
// Requires s.round final; caller holds s.mu or is construction-time.
func (s *Server) recoverLane(ln *lane, boardCfg billboard.Config, admitHist map[int][]journal.Admit) error {
	st, err := journal.OpenStore(shardDir(s.cfg.Persist.Dir(), ln.k), s.cfg.Persist.Policy())
	if err != nil {
		return err
	}
	if s.cfg.laneStore != nil {
		// Replication mirror, installed before the top-up writes below so a
		// lane's recovery seals replicate like any other journal byte.
		s.cfg.laneStore(ln.k, st)
	}
	ln.store, ln.jw = st, st.Writer()
	ln.sessions = make(map[uint64]*session)
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
		for _, ss := range lsn.Sessions {
			ln.sessions[ss.ID] = &session{
				id: ss.ID, player: ss.Player,
				lastSeq: ss.LastSeq, lastResp: ss.LastResp, loose: true,
				swarm: ss.Swarm, playerTo: ss.PlayerTo,
			}
		}
	} else {
		board, err = billboard.New(boardCfg)
		if err != nil {
			return err
		}
	}
	board.SetMetrics(s.cfg.Metrics)

	sessOf := func(rec journal.Record) *session {
		if rec.Session == 0 {
			return nil
		}
		sess := ln.sessions[rec.Session]
		if sess == nil {
			sess = &session{id: rec.Session, player: rec.Post.Player, loose: true}
			ln.sessions[rec.Session] = sess
		}
		return sess
	}
	var pending []stampedPost
	replayed := 0
	err = journal.ReplayRecords(st.Tail(), func(rec journal.Record) error {
		replayed++
		switch rec.Kind {
		case journal.RecordPost:
			pending = append(pending, stampedPost{post: rec.Post, index: rec.Index})
			if sess := sessOf(rec); sess != nil {
				if rec.Seq > sess.lastSeq {
					sess.lastSeq = rec.Seq
				}
				sess.loose = true
			}
		case journal.RecordEndRound:
			s.setAdmitsLocked(rec.Admits)
			for _, sp := range pending {
				if err := board.Post(sp.post); err != nil {
					return fmt.Errorf("replay post: %v", err)
				}
			}
			pending = pending[:0]
			board.EndRound()
		}
		return nil
	})
	if err != nil && !errors.Is(err, journal.ErrTruncated) {
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
		s.setAdmitsLocked(admits)
		for _, sp := range pending {
			if err := board.Post(sp.post); err != nil {
				return fmt.Errorf("topup post: %v", err)
			}
		}
		pending = pending[:0]
		board.EndRound()
		if err := ln.jw.EndRoundAdmits(admits); err != nil {
			return fmt.Errorf("topup seal: %w", err)
		}
	}
	ln.board = board
	ln.buckets = make(map[int]*pbucket)
	ln.posters, ln.nPending = nil, 0
	for _, sp := range pending {
		ln.addPending(sp)
	}
	ln.invalidateCache()
	s.m.journalReplayed.Add(int64(replayed))
	if replayed > 0 || st.Snapshot() != nil {
		s.logf("shard %d recovered to round %d: %d journal records replayed, %d pending restored",
			ln.k, board.Round(), replayed, len(pending))
	}
	return nil
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
// EndRound, cache invalidate — is lane-local by construction and runs
// concurrently across lanes, with the admits marker encoded once and the
// same bytes fsynced to every lane store in parallel (the replica mirror
// tee takes its own leaf lock, so parallel lanes tee safely). Cross-player
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
		ln.lock()
	}
	defer func() {
		for _, ln := range s.lanes {
			ln.unlock()
		}
	}()
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
				if !b.sorted {
					posts := b.posts
					sort.SliceStable(posts, func(i, j int) bool { return posts[i].index < posts[j].index })
					b.sorted = true
				}
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
	// own store file, own cache), so they run concurrently; the round becomes
	// observable (round++, broadcast) only after every lane sealed — the
	// per-round shard barrier.
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
		ln.invalidateCache()
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
	s.roundA.Store(int64(s.round))
	s.m.rounds.Inc()
	s.invalidateReadCacheLocked()
	// Rotation must happen inside the freeze: lane posts accepted after the
	// seal would land in the old wal segment and be lost to its truncation.
	// Lanes rotate first, the coordinator last, so the coordinator's
	// snapshot never claims rounds a lane snapshot is missing.
	if s.cfg.Persist != nil && !s.closed && s.cfg.SnapshotEvery > 0 && s.round%s.cfg.SnapshotEvery == 0 {
		s.rotateShardedLocked()
	}
	return true
}

// rotateShardedLocked snapshots and rotates every lane store and then the
// coordinator store. Failures are logged, never fatal (rotation bounds
// replay, it is not needed for correctness). Caller holds s.mu and every
// lane lock, at a round boundary (all pending buffers empty).
func (s *Server) rotateShardedLocked() {
	for _, ln := range s.lanes {
		boardBytes, err := ln.board.Snapshot()
		if err != nil {
			s.logf("shard %d snapshot at round %d failed: %v", ln.k, s.round, err)
			return
		}
		lsn := laneSnap{Board: boardBytes}
		for _, sess := range ln.sessions {
			lsn.Sessions = append(lsn.Sessions, sessionSnap{
				ID: sess.id, Player: sess.player, LastSeq: sess.lastSeq, LastResp: sess.lastResp,
				Swarm: sess.swarm, PlayerTo: sess.playerTo,
			})
		}
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

// laneHello authenticates a data-plane lane connection: same player
// credentials as the primary, plus the shard it binds to. Lane sessions
// carry only dedup state — no membership, no leases. A swarm lane session
// (Hello with Swarm and a member range) posts on behalf of any member; the
// swarm Hello is authoritative for the range, since a lane recovered from
// its journal knows sessions only by an arbitrary member's post records.
func (s *Server) laneHello(req *wire.Request) (wire.Response, *session, *lane) {
	if req.Version != wire.Version {
		return wire.Response{Err: fmt.Sprintf("protocol version %d, server speaks %d",
			req.Version, wire.Version)}, nil, nil
	}
	if !s.sharded() {
		return wire.Response{Err: "server is not sharded; no lane connections"}, nil, nil
	}
	from, to := req.Player, req.Player+1
	if req.Swarm {
		if s.cfg.SwarmToken == "" || req.Token != s.cfg.SwarmToken {
			return wire.Response{Err: "bad swarm token"}, nil, nil
		}
		from, to = req.Player, req.PlayerTo
		if from < 0 || to > len(s.cfg.Tokens) || from >= to {
			return wire.Response{Err: fmt.Sprintf("swarm range [%d, %d) invalid for %d players",
				from, to, len(s.cfg.Tokens))}, nil, nil
		}
	} else {
		if req.Player < 0 || req.Player >= len(s.cfg.Tokens) {
			return wire.Response{Err: fmt.Sprintf("player %d out of range", req.Player)}, nil, nil
		}
		if s.cfg.Tokens[req.Player] != req.Token {
			return wire.Response{Err: "bad token"}, nil, nil
		}
	}
	if req.Session == 0 {
		return wire.Response{Err: "missing session id"}, nil, nil
	}
	if req.Shard < 0 || req.Shard >= len(s.lanes) {
		return wire.Response{Err: fmt.Sprintf("shard %d out of range [0, %d)", req.Shard, len(s.lanes))}, nil, nil
	}
	ln := s.lanes[req.Shard]
	ln.lock()
	defer ln.unlock()
	if ln.down || s.closedA.Load() {
		// Dropped like a dying server: the client retries with backoff and
		// finds the lane again once RestartShard has rebuilt it.
		return wire.Response{Err: errServerClosed}, nil, nil
	}
	sess := ln.sessions[req.Session]
	switch {
	case sess == nil:
		sess = &session{id: req.Session, player: req.Player, swarm: req.Swarm, playerTo: req.PlayerTo}
		ln.sessions[req.Session] = sess
	case req.Swarm:
		if sess.swarm && (sess.player != from || sess.playerTo != to) {
			return wire.Response{Err: "session belongs to another player"}, nil, nil
		}
		if !sess.swarm && (sess.player < from || sess.player >= to) {
			// Recovered from the journal under a member's identity; the
			// authenticated range must cover it.
			return wire.Response{Err: "session belongs to another player"}, nil, nil
		}
		sess.swarm, sess.player, sess.playerTo = true, from, to
	case sess.swarm || sess.player != req.Player:
		return wire.Response{Err: "session belongs to another player"}, nil, nil
	}
	return wire.Response{
		Round:  int(s.roundA.Load()),
		Shards: len(s.lanes),
	}, sess, ln
}

// laneDispatch runs one sequenced lane request under the lane's own mutex —
// the parallel data plane. Only shard-local post batches are served here;
// everything else belongs on the primary connection.
func (s *Server) laneDispatch(ln *lane, sess *session, req *wire.Request) wire.Response {
	ln.lock()
	defer ln.unlock()
	if ln.down || s.closedA.Load() {
		return wire.Response{Err: errServerClosed}
	}
	switch {
	case req.Seq == 0:
		return wire.Response{Err: "missing request sequence number"}
	case req.Seq < sess.lastSeq:
		if sess.swarm {
			// A pipelined swarm client resent its unacknowledged tail after a
			// reconnect; the batch is already journaled and pending, so the
			// resend is a success. (A recovered lane session replays the same
			// content-free success an ordinary lane replay would.)
			s.m.dedupReplays.Inc()
			return wire.Response{Round: int(s.roundA.Load())}
		}
		return wire.Response{Err: fmt.Sprintf("stale sequence %d (last executed %d)", req.Seq, sess.lastSeq)}
	case req.Seq == sess.lastSeq:
		// Lane executions never block, so by the time a retry holds the
		// lane lock the original has finished: replay its response.
		s.m.dedupReplays.Inc()
		sess.loose = false
		return sess.lastResp
	case req.Seq > sess.lastSeq+1 && !sess.loose:
		return wire.Response{Err: fmt.Sprintf("sequence gap: got %d, want %d", req.Seq, sess.lastSeq+1)}
	}
	sess.lastSeq = req.Seq
	sess.loose = false
	resp := s.lanePostBatch(ln, sess, req)
	if s.replLog != nil && resp.Err != errServerClosed {
		// Same replicated-commit rule as the primary dispatch: the batch's
		// journal bytes must be durable on a quorum before the ack that
		// stops the client from resending them.
		if err := s.replLog.commitWait(s.replQuorum); err != nil {
			resp = wire.Response{Err: errServerClosed}
		}
	}
	sess.lastResp = resp
	return resp
}

// lanePostBatch accepts one shard-local post batch: validate, write-ahead
// journal, buffer as pending. Posts commit at the next round seal. Caller
// holds the lane lock.
func (s *Server) lanePostBatch(ln *lane, sess *session, req *wire.Request) wire.Response {
	if req.Type != wire.ReqPostBatch {
		return wire.Response{Err: fmt.Sprintf("%v not served on a lane connection", req.Type)}
	}
	if req.EndRound {
		return wire.Response{Err: "a lane batch cannot end the round; barrier on the primary connection"}
	}
	m := s.cfg.Universe.M()
	for i, p := range req.Posts {
		if p.Object < 0 || p.Object >= m {
			return wire.Response{Err: fmt.Sprintf("batch post %d/%d: object %d out of range", i+1, len(req.Posts), p.Object)}
		}
		if wire.Shard(p.Object, len(s.lanes)) != ln.k {
			return wire.Response{Err: fmt.Sprintf("batch post %d/%d: object %d belongs to shard %d, not %d",
				i+1, len(req.Posts), p.Object, wire.Shard(p.Object, len(s.lanes)), ln.k)}
		}
		if sess.swarm && (p.Player < sess.player || p.Player >= sess.playerTo) {
			return wire.Response{Err: fmt.Sprintf("batch post %d/%d: player %d outside swarm range [%d, %d)",
				i+1, len(req.Posts), p.Player, sess.player, sess.playerTo)}
		}
	}
	for _, p := range req.Posts {
		player := sess.player // authenticated identity, not client-claimed
		if sess.swarm {
			player = p.Player // validated member of the authenticated range
		}
		post := billboard.Post{
			Player:   player,
			Object:   p.Object,
			Value:    p.Value,
			Positive: p.Positive,
		}
		// Write-ahead: buffered iff journaled, so a lane restart restores
		// exactly the acknowledged pending set.
		if ln.jw != nil {
			if err := ln.jw.AppendAt(sess.id, req.Seq, p.Index, post); err != nil {
				return wire.Response{Err: fmt.Sprintf("journal: %v", err)}
			}
		}
		ln.addPending(stampedPost{post: post, index: p.Index})
		ln.mPosts.Inc()
	}
	return wire.Response{Round: int(s.roundA.Load())}
}

// waitLaneUpLocked blocks (releasing s.mu via the condition variable) while
// a lane is down, so coordinator-side reads and posts for its objects stall
// instead of failing or serving partial state. Returns false if the server
// closed while waiting. Caller holds s.mu.
func (s *Server) waitLaneUpLocked(ln *lane) bool {
	for ln.down && !s.closed {
		s.cond.Wait()
	}
	return !ln.down
}

// shardAppendLocked routes a primary-connection post (single or v3-style
// batch entry) to its owning lane, stamping the session's running post
// index so the commit order preserves the player's arrival order. Caller
// holds s.mu.
func (s *Server) shardAppendLocked(sess *session, seq uint64, object int, value float64, positive bool) error {
	if object < 0 || object >= s.cfg.Universe.M() {
		return fmt.Errorf("object %d out of range", object)
	}
	ln := s.laneFor(object)
	if !s.waitLaneUpLocked(ln) {
		return errors.New(errServerClosed)
	}
	ln.lock()
	defer ln.unlock()
	post := billboard.Post{Player: sess.player, Object: object, Value: value, Positive: positive}
	idx := sess.nextIdx
	sess.nextIdx++
	if ln.jw != nil {
		if err := ln.jw.AppendAt(sess.id, seq, idx, post); err != nil {
			return fmt.Errorf("journal: %v", err)
		}
	}
	ln.addPending(stampedPost{post: post, index: idx})
	ln.mPosts.Inc()
	return nil
}

// Scatter-gather reads (s.mu held). Lane boards mutate only under s.mu plus
// the lane lock (commit, recovery), so reading them under s.mu alone is
// race-free; the lane lock is not taken here.

// shardVotesLocked merges a player's votes across lanes into canonical
// (round, object) order.
func (s *Server) shardVotesLocked(player int) []wire.VoteMsg {
	var msgs []wire.VoteMsg
	for _, ln := range s.lanes {
		if !s.waitLaneUpLocked(ln) {
			return nil
		}
		for _, v := range ln.board.VotesView(player) {
			msgs = append(msgs, wire.VoteMsg{Player: v.Player, Object: v.Object, Round: v.Round, Value: v.Value})
		}
	}
	sort.Slice(msgs, func(i, j int) bool {
		if msgs[i].Round != msgs[j].Round {
			return msgs[i].Round < msgs[j].Round
		}
		return msgs[i].Object < msgs[j].Object
	})
	return msgs
}

// shardWindowLocked merges per-lane window counts (disjoint object sets, so
// the merge is a union). Each lane's count is served from its own cache.
func (s *Server) shardWindowLocked(from, to int) map[int]int {
	key := [2]int{from, to}
	merged := make(map[int]int)
	for _, ln := range s.lanes {
		if !s.waitLaneUpLocked(ln) {
			return merged
		}
		counts, ok := ln.cacheWindows[key]
		if !ok {
			counts = ln.board.CountVotesInWindow(from, to)
			if ln.cacheWindows == nil {
				ln.cacheWindows = make(map[[2]int]map[int]int)
			}
			ln.cacheWindows[key] = counts
		}
		for obj, n := range counts {
			merged[obj] += n
		}
	}
	return merged
}

// shardVotedObjectsLocked merges the voted-object sets (disjoint, each
// sorted) into one ascending list.
func (s *Server) shardVotedObjectsLocked() []int {
	var out []int
	for _, ln := range s.lanes {
		if !s.waitLaneUpLocked(ln) {
			return out
		}
		out = append(out, ln.board.VotedObjects()...)
	}
	sort.Ints(out)
	return out
}

// KillShard simulates a single-shard crash on a durable sharded server:
// the lane's in-memory state is dropped and its store closed, as if the
// lane process died. Its data-plane connections fail (clients retry with
// backoff), reads and posts for its objects block, and the round cannot
// commit until RestartShard. The chaos tests in internal/dist use this to
// assert that a mid-round shard bounce leaves the run byte-identical.
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
	ln.lock()
	defer ln.unlock()
	if ln.down {
		return fmt.Errorf("server: shard %d already down", k)
	}
	ln.down = true
	ln.board = nil
	ln.buckets, ln.posters, ln.nPending = nil, nil, 0
	ln.sessions = make(map[uint64]*session)
	ln.invalidateCache()
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
	ln.lock()
	if !ln.down {
		ln.unlock()
		return fmt.Errorf("server: shard %d is not down", k)
	}
	boardCfg := billboard.Config{
		Players:        len(s.cfg.Tokens),
		Objects:        s.cfg.Universe.M(),
		Mode:           billboard.FirstPositive,
		VotesPerPlayer: s.cfg.VotesPerPlayer,
		VoteFilter:     s.admitFilter,
	}
	// A kill can only interleave at a lane quiescent point (both locks), so
	// the lane's journal is sealed through the coordinator's round and the
	// top-up history is never needed; the last commit's admissions are kept
	// in case a future caller races a seal.
	admitHist := map[int][]journal.Admit{s.lastAdmitsRound: s.lastAdmits}
	err := s.recoverLane(ln, boardCfg, admitHist)
	if err == nil {
		ln.down = false
		s.m.shardRestarts.Inc()
		s.logf("shard %d restarted at round %d", k, s.round)
	}
	ln.unlock()
	if err != nil {
		return fmt.Errorf("server: restart shard %d: %w", k, err)
	}
	// The round may have been waiting on this lane's seal; blocked reads
	// and posts certainly were.
	s.advanceLocked()
	s.cond.Broadcast()
	return nil
}

// ShardCount reports the number of shard lanes (1 for an unsharded server).
func (s *Server) ShardCount() int {
	if !s.sharded() {
		return 1
	}
	return len(s.lanes)
}
