// Package server implements the shared billboard as a network service: the
// system component the paper assumes ("the system maintains a shared
// billboard", §1). Players connect over TCP, authenticate with a bearer
// token bound to their player id (the §2.1 reliable identity tagging),
// probe objects, post reports, read votes, and synchronize rounds through
// arrivals — the timestamp-based simulation of synchrony that §1.2 sketches:
// a player's arrival stamps the rounds it has finished and is answered once
// every active player has stamped past them and those rounds committed.
//
// The server owns the ground truth (the object universe): a probe request
// reveals an object's value only to the prober and charges its cost, so
// honest clients remain value-blind exactly as in the in-process engine.
// Byzantine clients may post whatever they like — the billboard's vote
// discipline (one vote per player, identity-tagged) is enforced here, not
// trusted to clients.
//
// Fault tolerance (wire protocol v2). The paper's model assumes honest
// players keep lockstep with the synchronous schedule; a real network
// injects failures that the service absorbs instead of equating with
// player death:
//
//   - sessions + leases: a dropped connection no longer auto-Dones the
//     player. Its session stays resumable for Config.SessionGrace; only
//     lease expiry or an explicit Done deregisters it. (Grace zero keeps
//     the legacy disconnect-is-Done behavior.)
//   - request dedup: every post-Hello request carries a per-session
//     sequence number; the server records the last executed sequence and
//     its response, so a client retrying after a lost response gets the
//     recorded response replayed — a retried Probe is never charged twice.
//   - round deadline: Config.BarrierDeadline bounds how long a round waits
//     for stragglers once the first player has arrived; on expiry the round
//     commits instead of wedging. The Mode picks what happens to the
//     stragglers: sync mode force-Dones them (journaled, so crash recovery
//     refuses to resurrect them), epoch mode seals without them.
//
// Performance (wire protocol v3). Two hot-path optimizations keep per-round
// traffic and CPU constant:
//
//   - batched posts: ReqPostBatch carries a whole round's posts (and
//     optionally the player's arrival) in one frame, so a player's round
//     costs O(1) frames instead of O(posts);
//   - read caching: committed-round reads (votes, voted objects, window
//     counts) are memoized until the next EndRound — the billboard cannot
//     change mid-round, so N players asking for the same round's state cost
//     one board traversal, not N.
package server

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/billboard"
	"repro/internal/journal"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Mode selects what a round's deadline (Config.BarrierDeadline) does to the
// players that have not arrived. Pacing is the same in both modes: an
// arrival stamps the rounds its player has finished and is answered once
// the open round reaches the stamp, and a round commits once every active
// player has stamped past it. With no deadline firing, the two modes commit
// byte-identical boards.
type Mode int

const (
	// ModeSync is the classic synchronous service (the timestamp simulation
	// of synchrony, §1.2): an expired deadline force-Dones the stragglers,
	// which may not rejoin. The zero value, so existing configurations are
	// unchanged.
	ModeSync Mode = iota
	// ModeEpoch runs timestamped epochs: an expired deadline seals the round
	// without its stragglers, which stay registered; their late posts bind
	// to the next open round. A silent straggler slows the run to one round
	// per deadline but never stalls it.
	ModeEpoch
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeSync:
		return "sync"
	case ModeEpoch:
		return "epoch"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config describes a billboard service instance.
type Config struct {
	// Universe is the ground truth (required).
	Universe *object.Universe
	// Tokens holds the bearer token for each player id; len(Tokens) is the
	// number of players N (required, non-empty).
	Tokens []string
	// Alpha and Beta are the assumed parameters advertised to clients at
	// Hello (what the protocol should be initialized with).
	Alpha, Beta float64
	// VotesPerPlayer is the vote cap f (default 1).
	VotesPerPlayer int
	// Expected is the number of players that must register before round 0
	// can complete; 0 means all N.
	Expected int
	// Persist, when non-nil, makes the server durable: it recovers the full
	// service state (billboard, round, membership, the charged-probe
	// ledger, per-session dedup windows) from the store's snapshot + journal
	// tail, then journals every state change through the store's writer.
	// A server killed mid-run and reconstructed from the same store is
	// indistinguishable from one that suffered a long network outage:
	// clients resume their sessions and retried requests dedup exactly
	// once. Pair it with a SessionGrace so mid-restart clients stay
	// resumable. Nil runs the service in memory only.
	Persist *journal.Store
	// Shards, when greater than 1, partitions the billboard by object id
	// across that many independent shard lanes (protocol v4): each lane has
	// its own mutex, board partition, read cache, and — with Persist — its
	// own journal store under Persist.Dir()/shard-%03d. Clients learn the
	// count at Hello and pipeline per-shard post batches over dedicated lane
	// connections; rounds commit through a per-round shard barrier (see
	// shard.go). Requires a LocalTesting universe (FirstPositive voting; the
	// BestValue mode's single movable vote is inherently global). Zero or 1
	// keeps the classic single-lane server, byte-identical to previous
	// versions at fixed seeds.
	Shards int
	// SwarmToken, when non-empty, lets a swarm driver open swarm sessions
	// (wire protocol v7): one Hello with Swarm set registers a contiguous
	// block of players [Player, PlayerTo) under this shared credential, and
	// the connection may then pipeline probe-batch, post-batch, arrival, and
	// swarm-done frames on behalf of any member. Swarm requests are
	// idempotent or reconstructible, so a resumed swarm session replays by
	// recomputation rather than from a recorded response window. Empty
	// disables swarm sessions.
	SwarmToken string
	// SnapshotEvery, with Persist, rotates the store every k committed
	// rounds: a full server snapshot replaces the journal so far, bounding
	// recovery replay to at most k rounds of records. Zero never rotates
	// (the journal grows for the whole run).
	SnapshotEvery int
	// SessionGrace is how long a disconnected player's session remains
	// resumable before the player is deregistered as if it had sent Done.
	// Zero keeps the legacy behavior: a dropped connection deregisters the
	// player immediately (a crashed player cannot wedge a round).
	SessionGrace time.Duration
	// BarrierDeadline is the round deadline: how long a round waits for
	// stragglers once its first arrival is waiting on it. On expiry the
	// round commits without them, and Mode decides their fate: sync mode
	// force-Dones every active player that has not arrived (the decision is
	// journaled), epoch mode leaves them registered. An epoch expiry that
	// finds no stamp past the round has nothing to seal; the round's next
	// arrival re-arms the timer. Zero waits forever. (It cannot unwedge
	// round 0 while fewer than Expected players have registered:
	// unregistered players are not yet part of the run.) A deadline that
	// fires trades the byte-exact sync/epoch digest equivalence for
	// liveness past silent stragglers.
	BarrierDeadline time.Duration
	// Mode selects the deadline's policy: synchronous rounds (ModeSync, the
	// default) or timestamped epochs (ModeEpoch); see the Mode constants.
	// Clients never see it: the wire protocol is the same in both modes.
	Mode Mode
	// Logf, when non-nil, receives operational events (session resume,
	// lease expiry, force-done) — e.g. log.Printf. Must be safe for
	// concurrent use.
	Logf func(format string, args ...any)
	// Metrics, when non-nil, receives the server_* metric family (request
	// counts and latency, per-connection bytes, session lifecycle, dedup
	// replays, read-cache hit rate, barrier waits, rounds committed) and
	// is handed to the billboard for the billboard_* family. Nil disables
	// recording at the cost of one branch per event.
	Metrics *obs.Registry

	// laneStore, when non-nil, is called with every shard lane's freshly
	// opened journal store before any recovery write lands in it — the hook
	// a replicated coordinator uses to install its journal mirrors.
	// Unexported: only the replica node (same package) sets it.
	laneStore func(k int, st *journal.Store)
}

// session is the server half of one client session: the dedup state that
// makes retried requests idempotent and the lease bookkeeping that lets a
// disconnected player resume.
type session struct {
	id     uint64
	player int
	// gen counts connection takeovers; a stale connection's disconnect (or
	// lease timer) is ignored when gen has moved on.
	gen       int
	connected bool
	// lastSeq/lastResp implement response dedup: a request repeating
	// lastSeq replays lastResp. executing marks lastSeq as still running
	// (e.g. an arrival blocked on behalf of a now-dead connection); a
	// retransmission waits for it rather than re-executing.
	lastSeq   uint64
	lastResp  wire.Response
	executing bool
	// timer is the armed lease-expiry timer while the session is in its
	// grace window; stopped on resume and at Close so no callback can fire
	// after the session (or the server) is gone.
	timer *time.Timer
	// loose relaxes the sequence-gap check for one request: a session
	// recovered from the journal has lastSeq at its last *journaled*
	// operation, while the client's counter also advanced over reads
	// (which are never journaled) — so the first post-restart request may
	// legitimately jump forward.
	loose bool
	// nextIdx stamps primary-connection posts with a running order index on
	// a sharded server, preserving the player's arrival order across lanes
	// (lane batches carry client-assigned indices instead).
	nextIdx int
	// swarm marks a session opened with Hello.Swarm: it speaks for every
	// player in [player, playerTo) at once (player holds the range start).
	// Swarm sessions never replay lastResp — resent frames are answered by
	// recomputation (swarmReplayLocked), which is what lets a swarm client
	// pipeline many frames per connection and resend the unacknowledged
	// tail after a reconnect.
	swarm    bool
	playerTo int
}

// memberRange returns the half-open player range a session speaks for:
// the swarm block, or the single player.
func (sess *session) memberRange() (int, int) {
	if sess.swarm {
		return sess.player, sess.playerTo
	}
	return sess.player, sess.player + 1
}

// Server is a running billboard service. Construct with New, then Start.
type Server struct {
	cfg Config
	ln  net.Listener
	// jw is the coordinator's journal writer: Persist.Writer() on a durable
	// server, nil in memory.
	jw *journal.Writer

	mu    sync.Mutex
	cond  *sync.Cond
	board *billboard.Board
	round int
	// Dense per-player membership, sized len(Config.Tokens) in New, with
	// O(1) counts: registered is permanent, active ends at Done, lease
	// expiry, or force-done, and byPlayer holds each player's session.
	registered  []bool
	active      []bool
	byPlayer    []*session
	nRegistered int
	nActive     int
	forceDone   map[int]int // player → round of the force-done decision
	sessions    map[uint64]*session
	probes      []int
	cost        []float64
	satisfied   []bool
	closed      bool

	// Sharding state (Config.Shards > 1; see shard.go). lanes is immutable
	// after New. The admission maps implement the global vote budget across
	// lanes; roundA/closedA mirror round/closed for the lane data plane,
	// which answers without taking s.mu.
	lanes           []*lane
	votesTaken      []int
	votedPair       map[admitKey]bool
	admitSet        map[admitKey]bool
	lastAdmits      []journal.Admit
	lastAdmitsRound int
	recoveredAdmits map[int][]journal.Admit // transient, New-time only
	roundA          atomic.Int64
	closedA         atomic.Bool

	// Pooled commit scratch (commitShardedLocked): the round's posters, the
	// per-poster dedup bitmap, the per-player merge heads and cursors, the
	// alternating admit slices (double-buffered because lastAdmits must
	// outlive the round that produced it), and the encode-once marker frame.
	// All retained across rounds so a steady-state commit allocates nothing
	// per shard.
	commitPosters []int
	posterSeen    []bool
	mergeHeads    []*pbucket
	mergeCurs     []int
	admitsScratch [2][]journal.Admit
	markerFrame   []byte

	// The round deadline (Config.BarrierDeadline): one timer, armed for
	// the open round by the first arrival that waits on it, stopped at the
	// seal and at Close.
	barrierTimer *time.Timer
	armedRound   int // round the deadline timer is armed for; -1 when idle

	// Round closure. Every arrival is a stamp: lastStamp[p] says player p
	// has finished submitting every round below it. nClosed counts the
	// active players whose stamp is past the open round, so the round is
	// closed when nClosed == nActive. forced marks the open round as
	// force-sealed by an epoch-mode deadline; it holds while a down lane
	// blocks the commit and is cleared at the seal.
	lastStamp []int
	nClosed   int
	forced    bool

	// Committed-round read cache, invalidated at every EndRound. Cached
	// values are immutable once built (never mutated, only dropped), so
	// sharing them across concurrently-encoded responses is safe.
	cacheVotes    map[int][]wire.VoteMsg
	cacheWindows  map[[2]int]map[int]int
	cacheVoted    []int
	cacheHasVoted bool

	// requests counts decoded client→server frames (all types, including
	// Hello). Observability for the O(1)-frames-per-round contract.
	requests atomic.Int64

	conns map[net.Conn]struct{} // open connections, force-closed on Close
	wg    sync.WaitGroup

	// Replication hooks (set by ReplicaNode on promotion, before any client
	// connection is served): every journaled response waits on replLog until
	// replQuorum replicas durably hold the bytes it produced, and round
	// markers carry replTerm/replQuorum annotations.
	replLog    *repLog
	replTerm   uint64
	replQuorum int

	m serverMetrics
}

// New validates cfg and builds a server (not yet listening).
func New(cfg Config) (*Server, error) {
	if cfg.Universe == nil {
		return nil, fmt.Errorf("server: Config.Universe is required")
	}
	if len(cfg.Tokens) == 0 {
		return nil, fmt.Errorf("server: Config.Tokens must name at least one player")
	}
	if cfg.Expected == 0 {
		cfg.Expected = len(cfg.Tokens)
	}
	if cfg.Expected < 1 || cfg.Expected > len(cfg.Tokens) {
		return nil, fmt.Errorf("server: Expected %d outside [1, %d]", cfg.Expected, len(cfg.Tokens))
	}
	if cfg.Mode < ModeSync || cfg.Mode > ModeEpoch {
		return nil, fmt.Errorf("server: unknown Mode %d", int(cfg.Mode))
	}
	mode := billboard.FirstPositive
	if !cfg.Universe.LocalTesting() {
		mode = billboard.BestValue
	}
	boardCfg := billboard.Config{
		Players:        len(cfg.Tokens),
		Objects:        cfg.Universe.M(),
		Mode:           mode,
		VotesPerPlayer: cfg.VotesPerPlayer,
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("server: Shards %d must be non-negative", cfg.Shards)
	}
	if cfg.Shards > 1 && mode != billboard.FirstPositive {
		return nil, fmt.Errorf("server: Shards > 1 requires a LocalTesting universe (BestValue's single movable vote is global)")
	}
	n := len(cfg.Tokens)
	s := &Server{
		cfg:        cfg,
		registered: make([]bool, n),
		active:     make([]bool, n),
		byPlayer:   make([]*session, n),
		lastStamp:  make([]int, n),
		forceDone:  make(map[int]int),
		sessions:   make(map[uint64]*session),
		conns:      make(map[net.Conn]struct{}),
		probes:     make([]int, n),
		cost:       make([]float64, n),
		satisfied:  make([]bool, n),
		armedRound: -1,
		m:          newServerMetrics(cfg.Metrics), // before recovery: replay is recorded
	}
	s.cond = sync.NewCond(&s.mu)
	if cfg.Persist != nil {
		if cfg.Shards > 1 {
			s.recoveredAdmits = make(map[int][]journal.Admit)
		}
		if err := s.recoverFromStore(boardCfg); err != nil {
			return nil, err
		}
		s.jw = cfg.Persist.Writer()
	} else if cfg.Shards <= 1 {
		board, err := billboard.New(boardCfg)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		s.board = board
	}
	if cfg.Shards > 1 {
		// The coordinator keeps no board of its own: posts live in the shard
		// lanes. Its store (when durable) carries probes, barriers, dones,
		// and the round markers whose admitted vote pairs anchor lane replay.
		if err := s.setupShards(boardCfg, s.recoveredAdmits); err != nil {
			return nil, err
		}
		s.recoveredAdmits = nil
	} else {
		s.board.SetMetrics(cfg.Metrics)
	}
	s.roundA.Store(int64(s.round))
	return s, nil
}

// Start listens on addr ("127.0.0.1:0" picks a free port) and serves
// connections until Close. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("server: %w", err)
	}
	return s.Serve(ln), nil
}

// Serve starts serving on an existing listener (e.g. one wrapped by
// internal/faultnet for server-side fault injection) and returns its
// address.
func (s *Server) Serve(ln net.Listener) string {
	s.ln = ln
	s.ArmSessionGrace()
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr().String()
}

// ArmSessionGrace starts the lease clocks of sessions recovered from a
// persist store: each disconnected session gets its grace window now —
// resume stops the timer, expiry deregisters the player as usual. With no
// grace, the crash already counted as their disconnect, so they are expired
// immediately (the legacy contract). Serve calls this itself; a replicated
// coordinator, which serves connections via ServeConn instead, calls it at
// promotion.
func (s *Server) ArmSessionGrace() {
	s.mu.Lock()
	var orphans []*session
	for _, sess := range s.sessions {
		if !sess.connected && sess.timer == nil {
			orphans = append(orphans, sess)
		}
	}
	for _, sess := range orphans {
		if s.cfg.SessionGrace > 0 {
			id, g := sess.id, sess.gen
			sess.timer = time.AfterFunc(s.cfg.SessionGrace, func() { s.expireSession(id, g) })
		} else {
			s.expireLocked(sess)
		}
	}
	s.mu.Unlock()
}

// ServeConn hands the server one already-accepted connection — the entry
// point of a replica node, which owns the listener itself so it can redirect
// clients while not leading. The connection is served like any accepted one
// and force-closed at Close.
func (s *Server) ServeConn(conn net.Conn) {
	s.wg.Add(1)
	go s.handle(conn)
}

// Close stops the listener, wakes blocked arrivals, and waits for
// connection handlers to drain.
func (s *Server) Close() error {
	s.closedA.Store(true)
	s.mu.Lock()
	s.closed = true
	if s.barrierTimer != nil {
		// An expiry already past Stop re-checks s.closed under the lock
		// before touching any seal state, so it never commits into a
		// closing server.
		s.barrierTimer.Stop()
	}
	// Stop pending lease timers: an expiry callback firing after Close
	// would race the teardown (and log into a closed harness).
	for _, sess := range s.sessions {
		if sess.timer != nil {
			sess.timer.Stop()
			sess.timer = nil
		}
	}
	// Force-close open connections: handlers blocked reading a request
	// would otherwise pin the WaitGroup until every client hangs up.
	for conn := range s.conns {
		conn.Close()
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	s.wg.Wait()
	// Lane stores are owned by the server (opened in setupShards), unlike
	// the caller-owned coordinator store; close them once handlers drained.
	for _, ln := range s.lanes {
		ln.lock()
		if ln.store != nil && !ln.down {
			if cerr := ln.store.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		ln.unlock()
	}
	return err
}

// Round returns the current round number.
func (s *Server) Round() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.round
}

// Digest returns the canonical digest of the committed billboard state
// (see billboard.Digest) — byte-identical across runs that committed the
// same posts in the same rounds, regardless of interleaving.
func (s *Server) Digest() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sharded() {
		boards := make([]*billboard.Board, len(s.lanes))
		for i, ln := range s.lanes {
			if !s.waitLaneUpLocked(ln) {
				return nil
			}
			boards[i] = ln.board
		}
		// MergeDigest is byte-identical to the single board an unsharded
		// server would digest — canonical ordering is lane-oblivious.
		return billboard.MergeDigest(boards...)
	}
	return s.board.Digest()
}

// Stats returns per-player probe counts, costs, and satisfaction as
// observed by the server, plus the current round.
func (s *Server) Stats() (probes []int, cost []float64, satisfied []bool, round int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.probes...),
		append([]float64(nil), s.cost...),
		append([]bool(nil), s.satisfied...),
		s.round
}

// RequestsServed reports the number of client→server frames decoded so far
// (all request types, including Hello). The frame-economy tests use it to
// pin the O(1)-frames-per-player-per-round contract of protocol v3.
func (s *Server) RequestsServed() int64 { return s.requests.Load() }

// ForceDone reports the players expelled by sync-mode round deadlines
// (including decisions recovered from the journal), keyed by the round of
// expulsion.
func (s *Server) ForceDone() map[int]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[int]int, len(s.forceDone))
	for p, r := range s.forceDone {
		out[p] = r
	}
	return out
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// handle serves one connection: a Hello (fresh or resuming) followed by any
// number of sequenced requests.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	s.m.connections.Inc()
	// rw carries all reads and writes; with metrics enabled it attributes
	// every byte moved to the bytes counters. s.conns keeps the raw conn —
	// Close force-closes that, which unblocks reads through the wrapper.
	var rw net.Conn = conn
	if s.m.enabled {
		rw = &countingConn{Conn: conn, in: s.m.bytesIn, out: s.m.bytesOut}
	}
	br := bufio.NewReader(rw)
	// Connection-scoped codecs (protocol v6): gob type descriptors cross the
	// wire once per connection, and the lane data plane stops paying a codec
	// compile per frame.
	dec := wire.NewStreamDecoder(br)
	enc := wire.NewStreamEncoder(rw)

	var sess *session
	var laneSess *session
	var laneOf *lane
	gen := 0
	defer func() {
		if sess != nil {
			s.disconnect(sess, gen)
		}
	}()

	var reqBuf wire.Request
	for {
		req := &reqBuf
		if err := dec.DecodeRequest(req); err != nil {
			// Clean EOF, a torn frame, or garbage: either way this
			// connection is over. The session (if any) enters its grace
			// window via the deferred disconnect.
			return
		}
		s.requests.Add(1)
		s.m.request(req.Type).Inc()
		var start time.Time
		if s.m.enabled {
			start = time.Now()
		}
		var resp wire.Response
		switch {
		case req.Type == wire.ReqHello && req.Lane:
			// Data-plane lane binding (protocol v4): no membership, no
			// lease; the connection serves only shard-local post batches.
			if sess != nil || laneSess != nil {
				resp.Err = "connection already bound"
				break
			}
			var ns *session
			var ln *lane
			resp, ns, ln = s.laneHello(req)
			if resp.Err == "" {
				laneSess, laneOf = ns, ln
			}
		case req.Type == wire.ReqHello:
			if laneSess != nil {
				resp.Err = "connection already bound to a shard lane"
				break
			}
			if sess != nil && req.Session != sess.id {
				resp.Err = "connection already bound to another session"
				break
			}
			var ns *session
			var ng int
			resp, ns, ng = s.hello(req)
			if resp.Err == "" {
				sess, gen = ns, ng
			}
		case laneSess != nil:
			resp = s.laneDispatch(laneOf, laneSess, req)
		case sess == nil:
			resp.Err = "not authenticated: send hello first"
		default:
			resp = s.dispatch(sess, req)
		}
		s.m.rpcSeconds.ObserveSince(start)
		if resp.Err == errServerClosed {
			// Shutting down: drop the connection instead of answering, as a
			// killed process would. The client sees a transport failure and
			// retries against whatever (restarted) server binds the address —
			// an application error here would wrongly end its session.
			return
		}
		if err := enc.EncodeResponse(&resp); err != nil {
			return
		}
	}
}

// errServerClosed marks a request caught mid-shutdown. It never goes on the
// wire: handle drops the connection when it sees it.
const errServerClosed = "server closed"

// disconnect runs when a connection dies. The session enters its lease
// window (or is expired immediately when SessionGrace is zero — the legacy
// disconnect-is-Done contract). A newer connection's takeover (gen bump)
// makes this a no-op.
func (s *Server) disconnect(sess *session, gen int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || sess.gen != gen || !sess.connected {
		return
	}
	sess.connected = false
	if s.cfg.SessionGrace <= 0 {
		if s.active[sess.player] {
			s.logf("player %d disconnected with no session grace: treating as done", sess.player)
		}
		s.expireLocked(sess)
		return
	}
	if s.active[sess.player] {
		s.logf("player %d disconnected; session resumable for %v", sess.player, s.cfg.SessionGrace)
	}
	id, g := sess.id, sess.gen
	sess.timer = time.AfterFunc(s.cfg.SessionGrace, func() { s.expireSession(id, g) })
}

// expireSession ends a lease that was never resumed.
func (s *Server) expireSession(id uint64, gen int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessions[id]
	if s.closed || sess == nil || sess.connected || sess.gen != gen {
		return
	}
	if s.active[sess.player] {
		s.logf("player %d session lease expired: treating as done", sess.player)
	}
	s.expireLocked(sess)
}

// expireLocked removes a session and deregisters its player — every member,
// for a swarm session — from future rounds (a no-op for players that
// already sent Done).
func (s *Server) expireLocked(sess *session) {
	s.m.sessionsExpired.Inc()
	if sess.timer != nil {
		sess.timer.Stop()
		sess.timer = nil
	}
	delete(s.sessions, sess.id)
	from, to := sess.memberRange()
	for p := from; p < to; p++ {
		if s.byPlayer[p] == sess {
			s.byPlayer[p] = nil
		}
		s.leaveLocked(p)
	}
}

// dispatch runs one sequenced request with retransmission dedup: a repeat
// of the last sequence replays the recorded response (waiting out an
// execution still in flight on behalf of a dead predecessor connection),
// so a retried request — in particular a retried Probe — never executes
// twice.
func (s *Server) dispatch(sess *session, req *wire.Request) wire.Response {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case req.Seq == 0:
		return wire.Response{Err: "missing request sequence number"}
	case req.Seq < sess.lastSeq:
		if sess.swarm {
			// A pipelined swarm client resends its whole unacknowledged tail
			// after a reconnect, so frames behind the dedup high-water mark
			// are expected; answer them by recomputation, never re-execution.
			s.m.dedupReplays.Inc()
			return s.swarmReplayLocked(sess, req)
		}
		return wire.Response{Err: fmt.Sprintf("stale sequence %d (last executed %d)", req.Seq, sess.lastSeq)}
	case req.Seq == sess.lastSeq:
		s.m.dedupReplays.Inc()
		for sess.executing && !s.closed {
			s.cond.Wait()
		}
		if sess.executing {
			return wire.Response{Err: errServerClosed}
		}
		sess.loose = false
		if sess.swarm {
			// Never lastResp: after a crash recovery the recorded response may
			// have the wrong shape for a probe batch; recomputation is exact.
			return s.swarmReplayLocked(sess, req)
		}
		return sess.lastResp
	case req.Seq > sess.lastSeq+1 && !sess.loose:
		return wire.Response{Err: fmt.Sprintf("sequence gap: got %d, want %d", req.Seq, sess.lastSeq+1)}
	}
	if sess.executing {
		// Unreachable with a serial client: seq lastSeq+1 while lastSeq
		// still runs would mean the client pipelined.
		return wire.Response{Err: "previous request still executing"}
	}
	sess.lastSeq = req.Seq
	sess.loose = false
	sess.executing = true
	resp := s.executeLocked(sess, req)
	if s.replLog != nil && resp.Err != errServerClosed {
		// Replicated commit: the response leaves this leader only after a
		// quorum of replicas durably holds every journal byte the request
		// (and, via the barrier, its round) produced. An aborted wait means
		// this node was deposed — drop the connection like a dying server.
		if err := s.replLog.commitWait(s.replQuorum); err != nil {
			resp = wire.Response{Err: errServerClosed}
		}
	}
	sess.lastResp = resp
	sess.executing = false
	s.cond.Broadcast()
	return resp
}

// executeLocked performs one authenticated request (s.mu held; an arrival
// may temporarily release it via cond.Wait).
func (s *Server) executeLocked(sess *session, req *wire.Request) wire.Response {
	switch req.Type {
	case wire.ReqProbe:
		if sess.swarm {
			return wire.Response{Err: "use probe-batch on a swarm session"}
		}
		return s.probeLocked(sess, req.Seq, req.Object)
	case wire.ReqProbeBatch:
		return s.probeBatchLocked(sess, req, true)
	case wire.ReqSwarmDone:
		return s.swarmDoneLocked(sess, req)
	case wire.ReqPost:
		return s.postLocked(sess, req)
	case wire.ReqPostBatch:
		return s.postBatchLocked(sess, req)
	case wire.ReqVotes:
		return s.votesLocked(req.OfPlayer)
	case wire.ReqVoteBatch:
		return s.voteBatchLocked(req)
	case wire.ReqVotedObjects:
		return wire.Response{Objects: s.votedObjectsLocked(), Round: s.round}
	case wire.ReqVoteCount:
		return s.voteCountLocked(req.Object)
	case wire.ReqNegCount:
		return s.negCountLocked(req.Object)
	case wire.ReqWindow:
		from, to := req.From, req.To
		if req.Last > 0 {
			// Sliding window (protocol v8): the most recent Last closed
			// rounds. Response.Round anchors the answer.
			to = s.round
			from = to - req.Last
			if from < 0 {
				from = 0
			}
		}
		return wire.Response{Counts: s.windowLocked(from, to), Round: s.round}
	case wire.ReqEpoch:
		return s.arriveLocked(sess, req.Seq, req.Epoch, true)
	case wire.ReqDone:
		if sess.swarm {
			return wire.Response{Err: "use swarm-done on a swarm session"}
		}
		if s.jw != nil {
			if err := s.jw.Done(sess.id, req.Seq, sess.player); err != nil {
				return wire.Response{Err: fmt.Sprintf("journal: %v", err)}
			}
		}
		s.leaveLocked(sess.player)
		return wire.Response{Round: s.round}
	default:
		return wire.Response{Err: fmt.Sprintf("unknown request type %v", req.Type)}
	}
}

// hello authenticates a connection. An unknown session id registers the
// player afresh; a known one resumes it (which also makes a retried Hello
// idempotent when the first response was lost in transit). It also returns
// the session's connection generation, read under the lock: a concurrent
// takeover by another connection bumps it.
func (s *Server) hello(req *wire.Request) (wire.Response, *session, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	resp, sess := s.helloLocked(req)
	if sess == nil {
		return resp, nil, 0
	}
	return resp, sess, sess.gen
}

func (s *Server) helloLocked(req *wire.Request) (wire.Response, *session) {
	if req.Version != wire.Version {
		return wire.Response{Err: fmt.Sprintf("protocol version %d, server speaks %d",
			req.Version, wire.Version)}, nil
	}
	if req.Swarm {
		return s.swarmHelloLocked(req)
	}
	p := req.Player
	if p < 0 || p >= len(s.cfg.Tokens) {
		return wire.Response{Err: fmt.Sprintf("player %d out of range", p)}, nil
	}
	if s.cfg.Tokens[p] != req.Token {
		return wire.Response{Err: "bad token"}, nil
	}
	if req.Session == 0 {
		return wire.Response{Err: "missing session id"}, nil
	}
	if sess := s.sessions[req.Session]; sess != nil {
		if sess.swarm {
			return wire.Response{Err: "session belongs to a swarm"}, nil
		}
		if sess.player != p {
			return wire.Response{Err: "session belongs to another player"}, nil
		}
		sess.gen++
		if sess.timer != nil {
			// The resume beat the lease: the old timer must never fire (the
			// gen bump also defuses it, but a stopped timer frees the
			// runtime entry and keeps Close's timer sweep exhaustive).
			sess.timer.Stop()
			sess.timer = nil
		}
		if !sess.connected {
			sess.connected = true
			s.m.sessionsResumed.Inc()
			s.logf("player %d resumed session %016x in round %d", p, sess.id, s.round)
		}
		return s.helloPayloadLocked(), sess
	}
	if r, ok := s.forceDone[p]; ok {
		return wire.Response{
			Err:  fmt.Sprintf("player %d was force-done in round %d", p, r),
			Code: wire.CodeBarrierDeadline,
		}, nil
	}
	if s.registered[p] {
		// The player exists but the presented session does not: its lease
		// expired (or the server restarted without it). Terminal for the
		// old client — its votes and dedup window are gone.
		return wire.Response{
			Err:  fmt.Sprintf("player %d already registered", p),
			Code: wire.CodeSessionExpired,
		}, nil
	}
	s.joinLocked(p)
	s.m.sessionsOpened.Inc()
	sess := &session{id: req.Session, player: p, gen: 1, connected: true}
	s.sessions[req.Session] = sess
	s.byPlayer[p] = sess
	s.advanceLocked() // registration may close a round arrivals wait on
	return s.helloPayloadLocked(), sess
}

func (s *Server) helloPayloadLocked() wire.Response {
	u := s.cfg.Universe
	costs := make([]float64, u.M())
	for i := range costs {
		costs[i] = u.Cost(i)
	}
	return wire.Response{
		N:            len(s.cfg.Tokens),
		M:            u.M(),
		LocalTesting: u.LocalTesting(),
		Alpha:        s.cfg.Alpha,
		Beta:         s.cfg.Beta,
		Costs:        costs,
		Round:        s.round,
		Shards:       s.ShardCount(),
	}
}

// swarmHelloLocked authenticates a swarm Hello (protocol v7): one session
// registering the whole player block [Player, PlayerTo) under the shared
// swarm credential, or resuming an existing swarm session after a
// reconnect. Caller holds s.mu.
func (s *Server) swarmHelloLocked(req *wire.Request) (wire.Response, *session) {
	if s.cfg.SwarmToken == "" {
		return wire.Response{Err: "server does not accept swarm sessions"}, nil
	}
	if req.Token != s.cfg.SwarmToken {
		return wire.Response{Err: "bad swarm token"}, nil
	}
	from, to := req.Player, req.PlayerTo
	if from < 0 || to > len(s.cfg.Tokens) || from >= to {
		return wire.Response{Err: fmt.Sprintf("swarm range [%d, %d) invalid for %d players",
			from, to, len(s.cfg.Tokens))}, nil
	}
	if req.Session == 0 {
		return wire.Response{Err: "missing session id"}, nil
	}
	if sess := s.sessions[req.Session]; sess != nil {
		if !sess.swarm || sess.player != from || sess.playerTo != to {
			return wire.Response{Err: "session belongs to another player"}, nil
		}
		sess.gen++
		if sess.timer != nil {
			sess.timer.Stop()
			sess.timer = nil
		}
		if !sess.connected {
			sess.connected = true
			s.m.sessionsResumed.Inc()
			s.logf("swarm [%d, %d) resumed session %016x in round %d", from, to, sess.id, s.round)
		}
		return s.helloPayloadLocked(), sess
	}
	for p := from; p < to; p++ {
		if r, ok := s.forceDone[p]; ok {
			return wire.Response{
				Err:  fmt.Sprintf("player %d was force-done in round %d", p, r),
				Code: wire.CodeBarrierDeadline,
			}, nil
		}
		if s.registered[p] {
			return wire.Response{
				Err:  fmt.Sprintf("player %d already registered", p),
				Code: wire.CodeSessionExpired,
			}, nil
		}
	}
	if s.jw != nil {
		if err := s.jw.SwarmOpen(req.Session, from, to); err != nil {
			return wire.Response{Err: fmt.Sprintf("journal: %v", err)}, nil
		}
	}
	sess := &session{id: req.Session, player: from, playerTo: to, swarm: true, gen: 1, connected: true}
	s.sessions[req.Session] = sess
	for p := from; p < to; p++ {
		s.joinLocked(p)
		s.byPlayer[p] = sess
	}
	s.m.sessionsOpened.Inc()
	s.advanceLocked() // registration may close a round arrivals wait on
	return s.helloPayloadLocked(), sess
}

// swarmReplayLocked answers a resent swarm frame (req.Seq <= sess.lastSeq)
// without re-executing its side effects. Swarm requests are idempotent or
// reconstructible, which is what replaces the per-request response window:
// probe batches recompute their results from the universe without charging
// again, post batches and dones are already buffered/applied and answer the
// current round, an arrival re-executes (its stamp is already in place, so
// it only waits for its target round) without a second journal record, and
// reads simply re-execute. Caller holds s.mu.
func (s *Server) swarmReplayLocked(sess *session, req *wire.Request) wire.Response {
	switch req.Type {
	case wire.ReqProbeBatch:
		return s.probeBatchLocked(sess, req, false)
	case wire.ReqEpoch:
		return s.arriveLocked(sess, req.Seq, req.Epoch, false)
	case wire.ReqPostBatch:
		if req.EndRound {
			return s.arriveLocked(sess, req.Seq, req.Epoch, false)
		}
		return wire.Response{Round: s.round}
	case wire.ReqSwarmDone:
		return wire.Response{Round: s.round}
	default:
		// Reads are side-effect free; re-execute for a fresh answer.
		return s.executeLocked(sess, req)
	}
}

// probeBatchLocked serves one swarm probe batch: members' probes validated,
// journaled, and charged in frame order, answered positionally. With charge
// false (replay of a resent frame) the results are recomputed from the
// universe — a pure function of (object, universe) — and nothing is billed,
// preserving the exactly-once probe-accounting contract across reconnects.
func (s *Server) probeBatchLocked(sess *session, req *wire.Request, charge bool) wire.Response {
	if !sess.swarm {
		return wire.Response{Err: "probe-batch requires a swarm session"}
	}
	u := s.cfg.Universe
	for i, pr := range req.Probes {
		if pr.Player < sess.player || pr.Player >= sess.playerTo {
			return wire.Response{Err: fmt.Sprintf("probe %d/%d: player %d outside swarm range [%d, %d)",
				i+1, len(req.Probes), pr.Player, sess.player, sess.playerTo)}
		}
		if pr.Object < 0 || pr.Object >= u.M() {
			return wire.Response{Err: fmt.Sprintf("probe %d/%d: object %d out of range",
				i+1, len(req.Probes), pr.Object)}
		}
	}
	if charge && s.jw != nil {
		// Write-ahead, like the single-probe path: a probe is charged iff
		// its record reached the journal.
		for _, pr := range req.Probes {
			if err := s.jw.Probe(sess.id, req.Seq, pr.Player, pr.Object); err != nil {
				return wire.Response{Err: fmt.Sprintf("journal: %v", err)}
			}
		}
	}
	results := make([]wire.ProbeRes, len(req.Probes))
	for i, pr := range req.Probes {
		good := u.LocalTesting() && u.IsGood(pr.Object)
		if charge {
			s.probes[pr.Player]++
			s.cost[pr.Player] += u.Cost(pr.Object)
			if good {
				s.satisfied[pr.Player] = true
			}
		}
		results[i] = wire.ProbeRes{Value: u.Value(pr.Object), Good: good}
	}
	return wire.Response{ProbeResults: results, Round: s.round}
}

// swarmDoneLocked deregisters a batch of swarm members (players that found
// a good object, or timed out). Journaled per player, like Done;
// deregistration is idempotent, so a replay is harmless.
func (s *Server) swarmDoneLocked(sess *session, req *wire.Request) wire.Response {
	if !sess.swarm {
		return wire.Response{Err: "swarm-done requires a swarm session"}
	}
	for i, p := range req.Players {
		if p < sess.player || p >= sess.playerTo {
			return wire.Response{Err: fmt.Sprintf("done %d/%d: player %d outside swarm range [%d, %d)",
				i+1, len(req.Players), p, sess.player, sess.playerTo)}
		}
	}
	if s.jw != nil {
		for _, p := range req.Players {
			if err := s.jw.Done(sess.id, req.Seq, p); err != nil {
				return wire.Response{Err: fmt.Sprintf("journal: %v", err)}
			}
		}
	}
	for _, p := range req.Players {
		s.leaveLocked(p)
	}
	return wire.Response{Round: s.round}
}

func (s *Server) probeLocked(sess *session, seq uint64, obj int) wire.Response {
	u := s.cfg.Universe
	player := sess.player
	if obj < 0 || obj >= u.M() {
		return wire.Response{Err: fmt.Sprintf("object %d out of range", obj)}
	}
	// Write-ahead: a probe is charged iff its record reached the journal.
	// Journal first — if the record cannot be written, nothing is charged
	// and the client may retry; never charge a probe a recovery would
	// forget.
	if s.jw != nil {
		if err := s.jw.Probe(sess.id, seq, player, obj); err != nil {
			return wire.Response{Err: fmt.Sprintf("journal: %v", err)}
		}
	}
	s.probes[player]++
	s.cost[player] += u.Cost(obj)
	good := u.LocalTesting() && u.IsGood(obj)
	if good {
		s.satisfied[player] = true
	}
	return wire.Response{Value: u.Value(obj), Good: good, Cost: u.Cost(obj), Round: s.round}
}

// appendPostLocked validates and buffers one post under the given player
// identity (the authenticated session player, or a validated swarm member),
// journaling it on acceptance. The journal record carries the session and
// sequence number so recovery can rebuild the dedup window.
func (s *Server) appendPostLocked(sess *session, seq uint64, player, object int, value float64, positive bool) error {
	if s.sharded() {
		// Route to the owning lane, stamped with the session's running
		// index so commit order preserves this player's arrival order.
		return s.shardAppendLocked(sess, seq, object, value, positive)
	}
	post := billboard.Post{
		Player:   player,
		Object:   object,
		Value:    value,
		Positive: positive,
	}
	if err := s.board.Post(post); err != nil {
		return err
	}
	if s.jw != nil {
		if err := s.jw.AppendFrom(sess.id, seq, post); err != nil {
			return fmt.Errorf("journal: %v", err)
		}
	}
	return nil
}

func (s *Server) postLocked(sess *session, req *wire.Request) wire.Response {
	if err := s.appendPostLocked(sess, req.Seq, sess.player, req.Object, req.Value, req.Positive); err != nil {
		return wire.Response{Err: err.Error()}
	}
	return wire.Response{Round: s.round}
}

// postBatchLocked applies a whole round's posts from one frame, in order,
// then (when requested) arrives — the protocol-v3 fast path.
// The batch is not transactional: an invalid post aborts the remainder with
// an error, leaving earlier posts buffered; since the whole batch executed
// under one sequence number, a retry replays the recorded response and
// never re-applies any of them. On a swarm session each post carries its
// member's identity (validated against the session's range); on an ordinary
// session the authenticated identity is stamped, never the client-claimed
// one.
func (s *Server) postBatchLocked(sess *session, req *wire.Request) wire.Response {
	if sess.swarm && s.sharded() {
		// Swarm posts on a sharded server carry client-assigned indices and
		// flow through the lane data plane, where cross-player commit order
		// is well defined; the primary path's per-session index stamp is not.
		return wire.Response{Err: "swarm posts on a sharded server go to shard lanes"}
	}
	if req.EndRound && req.Epoch < 1 {
		return badStamp(req.Epoch)
	}
	for i, p := range req.Posts {
		player := sess.player
		if sess.swarm {
			if p.Player < sess.player || p.Player >= sess.playerTo {
				return wire.Response{Err: fmt.Sprintf("batch post %d/%d: player %d outside swarm range [%d, %d)",
					i+1, len(req.Posts), p.Player, sess.player, sess.playerTo)}
			}
			player = p.Player
		}
		if err := s.appendPostLocked(sess, req.Seq, player, p.Object, p.Value, p.Positive); err != nil {
			return wire.Response{Err: fmt.Sprintf("batch post %d/%d: %v", i+1, len(req.Posts), err)}
		}
	}
	if req.EndRound {
		// The posts above are already applied under this lock, so the round
		// the stamp releases necessarily contains them.
		return s.arriveLocked(sess, req.Seq, req.Epoch, true)
	}
	return wire.Response{Round: s.round}
}

// arriveLocked takes every arrival — bare (ReqEpoch), fused onto a post
// batch, or a swarm client's resend. It stamps target for every active
// player the session speaks for, commits the rounds that closes, and waits
// until the open round reaches target (or the server closes). Stamps are
// monotone, so a repeated or stale arrival changes nothing and is answered
// once its round has committed — at once, if it already has. record is
// false only for a swarm resend, whose original wrote the journal record.
func (s *Server) arriveLocked(sess *session, seq uint64, target int, record bool) wire.Response {
	if target < 1 {
		return badStamp(target)
	}
	from, to := sess.memberRange()
	live := false
	for p := from; p < to && !live; p++ {
		live = s.active[p]
	}
	if !live {
		return wire.Response{Err: "player is done; no arrival"}
	}
	// Journaled (round-buffered, like the posts): a committed round's
	// arrivals bind the session's dedup window across a restart; an
	// uncommitted round's are rolled back and re-arrive on retry. A swarm
	// session's arrival is one record, Player -1, meaning "all active
	// members of Session".
	if record && s.jw != nil {
		player := sess.player
		if sess.swarm {
			player = -1
		}
		if err := s.jw.Barrier(sess.id, seq, player); err != nil {
			return wire.Response{Err: fmt.Sprintf("journal: %v", err)}
		}
	}
	s.stampLocked(sess, target)
	s.advanceLocked()
	return s.awaitRoundLocked(target)
}

// badStamp rejects an arrival whose target stamp is below 1: every arrival
// finishes at least round 0.
func badStamp(target int) wire.Response {
	return wire.Response{Err: fmt.Sprintf("arrival stamp %d: an arrival targets round 1 or later", target)}
}

// stampLocked advances the stamp of every active member the session speaks
// for (the whole block, for a swarm session) to epoch, counting a member
// closed when its stamp first passes the open round. Stamps are monotone:
// a stale or replayed frame can never move one backwards.
func (s *Server) stampLocked(sess *session, epoch int) {
	from, to := sess.memberRange()
	for p := from; p < to; p++ {
		if !s.active[p] || epoch <= s.lastStamp[p] {
			continue
		}
		if s.lastStamp[p] <= s.round && epoch > s.round {
			s.nClosed++
		}
		s.lastStamp[p] = epoch
	}
}

// registerLocked marks player p registered for good. Idempotent.
func (s *Server) registerLocked(p int) {
	if !s.registered[p] {
		s.registered[p] = true
		s.nRegistered++
	}
}

// joinLocked registers player p and makes it active. Stamps only move
// while a player is active and a player joins once, so it joins open.
// Idempotent.
func (s *Server) joinLocked(p int) {
	s.registerLocked(p)
	if !s.active[p] {
		s.active[p] = true
		s.nActive++
	}
}

// deactivateLocked removes p from the active set, dropping it from the
// closed count if its stamp had passed the open round. Idempotent.
func (s *Server) deactivateLocked(p int) {
	if !s.active[p] {
		return
	}
	s.active[p] = false
	s.nActive--
	if s.lastStamp[p] > s.round {
		s.nClosed--
	}
}

func (s *Server) votesLocked(ofPlayer int) wire.Response {
	if ofPlayer < 0 || ofPlayer >= len(s.cfg.Tokens) {
		return wire.Response{Err: fmt.Sprintf("player %d out of range", ofPlayer)}
	}
	if msgs, ok := s.cacheVotes[ofPlayer]; ok {
		s.m.cacheHits.Inc()
		return wire.Response{Votes: msgs, Round: s.round}
	}
	s.m.cacheMisses.Inc()
	var msgs []wire.VoteMsg
	if s.sharded() {
		msgs = s.shardVotesLocked(ofPlayer)
	} else {
		votes := s.board.Votes(ofPlayer)
		msgs = make([]wire.VoteMsg, len(votes))
		for i, v := range votes {
			msgs[i] = wire.VoteMsg{Player: v.Player, Object: v.Object, Round: v.Round, Value: v.Value}
		}
	}
	if s.cacheVotes == nil {
		s.cacheVotes = make(map[int][]wire.VoteMsg)
	}
	s.cacheVotes[ofPlayer] = msgs
	return wire.Response{Votes: msgs, Round: s.round}
}

// voteBatchLocked answers a bulk vote read (protocol v7): the committed
// votes of every listed player, concatenated — each VoteMsg names its
// player, so the caller regroups them. Players without votes contribute
// nothing. Serving one frame instead of len(Players) round-trips is what
// keeps a million-player swarm's advice rounds latency-bound on frames,
// not on per-player reads; the per-player results land in the same
// committed-round cache ReqVotes uses.
func (s *Server) voteBatchLocked(req *wire.Request) wire.Response {
	var out []wire.VoteMsg
	for _, p := range req.Players {
		r := s.votesLocked(p)
		if r.Err != "" {
			return r
		}
		out = append(out, r.Votes...)
	}
	return wire.Response{Votes: out, Round: s.round}
}

// votedObjectsLocked serves the voted-object set from the committed-round
// cache, computing it once per round.
func (s *Server) votedObjectsLocked() []int {
	if !s.cacheHasVoted {
		s.m.cacheMisses.Inc()
		if s.sharded() {
			s.cacheVoted = s.shardVotedObjectsLocked()
		} else {
			s.cacheVoted = s.board.VotedObjects()
		}
		s.cacheHasVoted = true
	} else {
		s.m.cacheHits.Inc()
	}
	return s.cacheVoted
}

// windowLocked serves window counts from the committed-round cache, keyed
// by the window bounds.
func (s *Server) windowLocked(from, to int) map[int]int {
	key := [2]int{from, to}
	if counts, ok := s.cacheWindows[key]; ok {
		s.m.cacheHits.Inc()
		return counts
	}
	s.m.cacheMisses.Inc()
	var counts map[int]int
	if s.sharded() {
		counts = s.shardWindowLocked(from, to)
	} else {
		counts = s.board.CountVotesInWindow(from, to)
	}
	if s.cacheWindows == nil {
		s.cacheWindows = make(map[[2]int]map[int]int)
	}
	s.cacheWindows[key] = counts
	return counts
}

// invalidateReadCacheLocked drops the committed-round read cache; called
// whenever the committed billboard state changes (EndRound).
func (s *Server) invalidateReadCacheLocked() {
	s.cacheVotes = nil
	s.cacheWindows = nil
	s.cacheVoted = nil
	s.cacheHasVoted = false
}

func (s *Server) voteCountLocked(obj int) wire.Response {
	if obj < 0 || obj >= s.cfg.Universe.M() {
		return wire.Response{Err: fmt.Sprintf("object %d out of range", obj)}
	}
	if s.sharded() {
		ln := s.laneFor(obj)
		if !s.waitLaneUpLocked(ln) {
			return wire.Response{Err: errServerClosed}
		}
		return wire.Response{Count: ln.board.VoteCount(obj), Round: s.round}
	}
	return wire.Response{Count: s.board.VoteCount(obj), Round: s.round}
}

func (s *Server) negCountLocked(obj int) wire.Response {
	if obj < 0 || obj >= s.cfg.Universe.M() {
		return wire.Response{Err: fmt.Sprintf("object %d out of range", obj)}
	}
	if s.sharded() {
		ln := s.laneFor(obj)
		if !s.waitLaneUpLocked(ln) {
			return wire.Response{Err: errServerClosed}
		}
		return wire.Response{Count: ln.board.NegativeCount(obj), Round: s.round}
	}
	return wire.Response{Count: s.board.NegativeCount(obj), Round: s.round}
}

// awaitRoundLocked blocks until the open round reaches target or the server
// closes, arming the deadline of every round it waits on. Caller holds s.mu.
func (s *Server) awaitRoundLocked(target int) wire.Response {
	var waitStart time.Time
	if s.m.enabled {
		waitStart = time.Now()
	}
	for s.round < target && !s.closed {
		if s.cfg.BarrierDeadline > 0 && s.armedRound != s.round {
			s.armedRound = s.round
			round := s.round
			s.barrierTimer = time.AfterFunc(s.cfg.BarrierDeadline, func() { s.deadlineExpire(round) })
		}
		s.cond.Wait()
	}
	s.m.barrierWait.ObserveSince(waitStart)
	if s.closed && s.round < target {
		return wire.Response{Err: errServerClosed}
	}
	return wire.Response{Round: s.round}
}

// deadlineExpire fires when round outlived its deadline, and commits it
// without the players that have not arrived. In sync mode each of them is
// force-Done'd — journaled, logged. In epoch mode they stay registered and
// the round is force-sealed, provided some player has stamped past it;
// otherwise there is nothing to seal and the round's next arrival re-arms
// the timer.
func (s *Server) deadlineExpire(round int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.round != round {
		return
	}
	if s.cfg.Mode == ModeEpoch {
		if s.nClosed == 0 || s.nRegistered < s.cfg.Expected {
			s.armedRound = -1
			return
		}
		if s.nClosed < s.nActive && !s.forced {
			s.forced = true
			s.m.deadlineSeals.Inc()
		}
		s.advanceLocked()
		return
	}
	for p, active := range s.active {
		if !active || s.lastStamp[p] > round {
			continue
		}
		s.forceDone[p] = round
		s.m.forceDone.Inc()
		s.logf("round %d barrier deadline (%v) expired: force-done straggler player %d",
			round, s.cfg.BarrierDeadline, p)
		if s.jw != nil {
			_ = s.jw.ForceDone(p)
		}
		if sess := s.byPlayer[p]; sess != nil {
			delete(s.sessions, sess.id)
			s.byPlayer[p] = nil
		}
		s.deactivateLocked(p)
	}
	s.advanceLocked()
}

// leaveLocked deregisters a player from future rounds and re-checks the
// advance condition (its arrival is no longer required). O(1) unless the
// departure closes the round.
func (s *Server) leaveLocked(player int) {
	if !s.active[player] {
		return
	}
	s.deactivateLocked(player)
	s.advanceLocked()
}

// advanceLocked commits rounds while the open one is closed: everyone
// expected has registered and every active player's stamp has passed it
// (or an epoch-mode deadline forced it). The rule is the same in both
// modes, which is why they commit the same posts into the same rounds
// until a deadline fires. It loops because a seal opens the next round,
// which stamps several rounds ahead may already close. A down lane leaves
// the round open.
func (s *Server) advanceLocked() {
	for s.nRegistered >= s.cfg.Expected && s.nActive > 0 &&
		(s.nClosed == s.nActive || s.forced) {
		if !s.sealLocked() {
			return
		}
	}
}

// sealLocked commits the open round and reopens closure for the next one.
// It reports false when a down lane blocked the commit (the round stays
// open; RestartShard re-runs the advance).
func (s *Server) sealLocked() bool {
	if s.sharded() {
		// The per-round shard barrier: every lane must seal before the round
		// is observable. A down lane leaves the round open (waiters stay
		// blocked); RestartShard re-runs this advance.
		if !s.commitShardedLocked() {
			return false
		}
	} else {
		s.board.EndRound()
		s.round++
		s.roundA.Store(int64(s.round))
		s.m.rounds.Inc()
		s.invalidateReadCacheLocked()
		if s.jw != nil {
			// A marker failure is logged into the error path on the next post;
			// the in-memory board stays authoritative for this process.
			if s.replLog != nil {
				_ = s.jw.EndRoundQuorum(nil, s.replTerm, s.replQuorum)
			} else {
				_ = s.jw.EndRound()
			}
		}
		if s.cfg.Mode == ModeEpoch {
			s.m.epochSeals.Inc()
		}
	}
	s.reopenLocked()
	if s.barrierTimer != nil && s.armedRound >= 0 {
		s.barrierTimer.Stop()
		s.armedRound = -1
	}
	// Never rotate once shutdown has begun: Close's broadcast makes waiting
	// arrivals record the errServerClosed sentinel in their dedup windows, and
	// a snapshot taken after that would persist those sentinels — a recovered
	// server would then replay "server closed" to every retry, forever. The
	// EndRound marker above already made this commit durable in the journal.
	// (A sharded commit rotates inside its own critical section instead.)
	if !s.sharded() && s.cfg.Persist != nil && !s.closed && s.cfg.SnapshotEvery > 0 && s.round%s.cfg.SnapshotEvery == 0 {
		s.rotateLocked()
	}
	s.cond.Broadcast()
	return true
}

// reopenLocked re-derives closure for a freshly opened round and clears
// any deadline force. Only stamps several rounds ahead stay past the new
// round. One scan per seal, O(players).
func (s *Server) reopenLocked() {
	n := 0
	for p, active := range s.active {
		if active && s.lastStamp[p] > s.round {
			n++
		}
	}
	s.nClosed = n
	s.forced = false
}
