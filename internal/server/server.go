// Package server implements the shared billboard as a network service: the
// system component the paper assumes ("the system maintains a shared
// billboard", §1). Players connect over TCP, authenticate with a bearer
// token bound to their player id (the §2.1 reliable identity tagging),
// probe objects, post reports, read votes, and synchronize rounds through
// arrivals — the timestamp-based simulation of synchrony that §1.2 sketches:
// a player's arrival stamps the rounds it has finished and is answered once
// every active player has stamped past them and those rounds committed.
//
// One session kind (wire protocol v10). Every session speaks for a player
// range: a player's own token opens [p, p+1), and the swarm token
// (Config.SwarmToken) opens any block [from, to). Every probe, post and done
// entry names its player, and the server rejects one outside the session's
// range; no path substitutes the session's identity for the player a frame
// names. The credential still decides one thing, how a resent request is
// answered (see session.swarm).
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
//     sequence number. A player's own session records the last executed
//     sequence and its response, so a client retrying after a lost response
//     gets the recorded response replayed; a swarm session's resend is
//     answered by recomputation. Either way a retried probe is never
//     charged twice.
//   - round deadline: Config.BarrierDeadline bounds how long a round waits
//     for stragglers once the first player has arrived; on expiry the round
//     commits instead of wedging. The Mode picks what happens to the
//     stragglers: sync mode force-Dones them (journaled, so crash recovery
//     refuses to resurrect them), epoch mode seals without them.
//
// Performance (wire protocol v3). Batched posts keep per-round traffic
// constant: ReqPostBatch carries a whole round's posts (and optionally the
// player's arrival) in one frame, so a player's round costs O(1) frames
// instead of O(posts). Reads go straight to the one board; the server keeps
// no read cache.
package server

import (
	"bufio"
	"errors"
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
	// SwarmToken, when non-empty, lets a swarm driver open swarm sessions
	// (wire protocol v7): one Hello with Swarm set registers a contiguous
	// block of players [Player, PlayerTo) under this shared credential, and
	// the connection may then pipeline probe-batch, post-batch, arrival, and
	// done frames on behalf of any member. Swarm requests are idempotent or
	// reconstructible, so a resumed swarm session replays by recomputation
	// rather than from a recorded response. Empty disables swarm sessions.
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
	// replays, barrier waits, rounds committed) and is handed to the
	// billboard for the billboard_* family. Nil disables recording at the
	// cost of one branch per event.
	Metrics *obs.Registry
}

// session is the server half of one client session. Every session speaks
// for a player range [player, playerTo): a player's own token opens
// [p, p+1), the swarm token any block. It holds the dedup state that makes
// retried requests idempotent and the lease bookkeeping that lets a
// disconnected session resume.
type session struct {
	id       uint64
	player   int
	playerTo int
	// gen counts connection takeovers; a stale connection's disconnect (or
	// lease timer) is ignored when gen has moved on.
	gen       int
	connected bool
	// lastSeq/lastResp implement response dedup: a request repeating
	// lastSeq replays lastResp. executing marks lastSeq as still running
	// (e.g. an arrival blocked on behalf of a now-dead connection); a
	// retransmission waits for it rather than re-executing. lastResp
	// outlives its request, so a response never aliases a reused buffer,
	// such as the entry arrays the connection's decoder reuses.
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
	// swarm marks a session opened with the swarm credential. It may
	// pipeline, so it never replays lastResp: resent frames are answered by
	// recomputation (swarmReplayLocked), which is what lets a swarm client
	// resend its unacknowledged tail after a reconnect. A player's own
	// session replays lastResp instead: recomputation would answer a resend
	// of a charged probe with the values of whatever objects the resend
	// names, without charging for them.
	swarm bool
}

// has reports whether player p lies in the session's range.
func (sess *session) has(p int) bool { return p >= sess.player && p < sess.playerTo }

// String names the session's range for the operational log.
func (sess *session) String() string {
	if sess.playerTo == sess.player+1 {
		return fmt.Sprintf("player %d", sess.player)
	}
	return fmt.Sprintf("players [%d, %d)", sess.player, sess.playerTo)
}

// outsideRange rejects entry i of an n-entry frame that names player p
// outside the session's range.
func outsideRange(what string, i, n, p int, sess *session) wire.Response {
	return wire.Response{Err: fmt.Sprintf("%s %d/%d: player %d outside session range [%d, %d)",
		what, i+1, n, p, sess.player, sess.playerTo)}
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

	// The round deadline (Config.BarrierDeadline): one timer, armed for
	// the open round by the first arrival that waits on it, stopped at the
	// seal and at Close.
	barrierTimer *time.Timer
	armedRound   int // round the deadline timer is armed for; -1 when idle

	// Round closure. Every arrival is a stamp: lastStamp[p] says player p
	// has finished submitting every round below it. nClosed counts the
	// active players whose stamp is past the open round, so the round is
	// closed when nClosed == nActive. forced marks the open round as
	// force-sealed by an epoch-mode deadline; the seal clears it.
	lastStamp []int
	nClosed   int
	forced    bool

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
	// tailCut records that recovery cut a torn final frame off the wal: a
	// replica promoted over such a store rotates it, since its replicated
	// stream still holds the cut bytes.
	tailCut bool

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
		if err := s.recoverFromStore(boardCfg); err != nil {
			return nil, err
		}
		s.jw = cfg.Persist.Writer()
	} else {
		board, err := billboard.New(boardCfg)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		s.board = board
	}
	s.board.SetMetrics(cfg.Metrics)
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
	// Connection-scoped codecs: frames are self-contained (protocol v11),
	// so the pair keeps only buffers — the decoder's frame buffer and the
	// encoder's, which writes each response in one Write.
	dec := wire.NewStreamDecoder(br)
	enc := wire.NewStreamEncoder(rw)

	var sess *session
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
		case req.Type == wire.ReqHello:
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

// expireLocked removes a session and deregisters every player of its range
// from future rounds (a no-op for players that already sent Done).
func (s *Server) expireLocked(sess *session) {
	s.m.sessionsExpired.Inc()
	if sess.timer != nil {
		sess.timer.Stop()
		sess.timer = nil
	}
	delete(s.sessions, sess.id)
	for p := sess.player; p < sess.playerTo; p++ {
		if s.byPlayer[p] == sess {
			s.byPlayer[p] = nil
		}
		s.leaveLocked(p)
	}
}

// dispatch runs one sequenced request with retransmission dedup: a repeat
// of the last sequence is answered without executing again (waiting out an
// execution still in flight on behalf of a dead predecessor connection) —
// from the recorded response on a player's own session, by recomputation on
// a swarm session — so a retried probe is never charged twice.
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
			// Never lastResp: a swarm session answers every resend, the last
			// one included, by recomputation (see session.swarm).
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
	case wire.ReqProbeBatch:
		return s.probeBatchLocked(sess, req, true)
	case wire.ReqPostBatch:
		return s.postBatchLocked(sess, req)
	case wire.ReqDone:
		return s.doneLocked(sess, req)
	case wire.ReqVoteBatch:
		return s.voteBatchLocked(req)
	case wire.ReqVotedObjects:
		return s.votedObjectsLocked()
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
		return s.windowLocked(from, to)
	case wire.ReqEpoch:
		return s.arriveLocked(sess, req.Seq, req.Epoch, true)
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

// helloLocked opens the range the Hello's credential grants, or resumes the
// session it names. A swarm session's opening is journaled (SwarmOpen); a
// player's own registration is re-derived at recovery from its first
// journaled action. Caller holds s.mu.
func (s *Server) helloLocked(req *wire.Request) (wire.Response, *session) {
	from, to, err := s.auth(req)
	if err != nil {
		return wire.Response{Err: err.Error()}, nil
	}
	if sess := s.sessions[req.Session]; sess != nil {
		if sess.swarm != req.Swarm || sess.player != from || sess.playerTo != to {
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
			s.logf("%v resumed session %016x in round %d", sess, sess.id, s.round)
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
			// The player exists but the presented session does not: its lease
			// expired (or the server restarted without it). Terminal for the
			// old client — its votes and dedup window are gone.
			return wire.Response{
				Err:  fmt.Sprintf("player %d already registered", p),
				Code: wire.CodeSessionExpired,
			}, nil
		}
	}
	if req.Swarm && s.jw != nil {
		if err := s.jw.SwarmOpen(req.Session, from, to); err != nil {
			return wire.Response{Err: fmt.Sprintf("journal: %v", err)}, nil
		}
	}
	sess := &session{id: req.Session, player: from, playerTo: to, swarm: req.Swarm, gen: 1, connected: true}
	s.sessions[req.Session] = sess
	for p := from; p < to; p++ {
		s.joinLocked(p)
		s.byPlayer[p] = sess
	}
	s.m.sessionsOpened.Inc()
	s.advanceLocked() // registration may close a round arrivals wait on
	return s.helloPayloadLocked(), sess
}

// auth checks a Hello's protocol version, credential and session id, and
// returns the player range the credential opens: a player's own token opens
// [Player, Player+1), the swarm token any [Player, PlayerTo). It reads only
// the immutable configuration.
func (s *Server) auth(req *wire.Request) (from, to int, err error) {
	if req.Version != wire.Version {
		return 0, 0, fmt.Errorf("protocol version %d, server speaks %d", req.Version, wire.Version)
	}
	n := len(s.cfg.Tokens)
	from, to = req.Player, req.Player+1
	switch {
	case req.Swarm && s.cfg.SwarmToken == "":
		return 0, 0, errors.New("server does not accept swarm sessions")
	case req.Swarm && req.Token != s.cfg.SwarmToken:
		return 0, 0, errors.New("bad swarm token")
	case req.Swarm:
		to = req.PlayerTo
		if from < 0 || to > n || from >= to {
			return 0, 0, fmt.Errorf("swarm range [%d, %d) invalid for %d players", from, to, n)
		}
	case from < 0 || from >= n:
		return 0, 0, fmt.Errorf("player %d out of range", from)
	case s.cfg.Tokens[from] != req.Token:
		return 0, 0, errors.New("bad token")
	}
	if req.Session == 0 {
		return 0, 0, errors.New("missing session id")
	}
	return from, to, nil
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
	}
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
	case wire.ReqDone:
		return wire.Response{Round: s.round}
	default:
		// Reads are side-effect free; re-execute for a fresh answer.
		return s.executeLocked(sess, req)
	}
}

// probeBatchLocked serves one probe batch: its probes validated against the
// session's range and the universe, journaled, and charged in frame order,
// answered positionally. With charge false (replay of a resent swarm frame)
// the results are recomputed from the universe — a pure function of
// (object, universe) — and nothing is billed, preserving the exactly-once
// probe-accounting contract across reconnects.
func (s *Server) probeBatchLocked(sess *session, req *wire.Request, charge bool) wire.Response {
	u := s.cfg.Universe
	for i, pr := range req.Probes {
		if !sess.has(pr.Player) {
			return outsideRange("probe", i, len(req.Probes), pr.Player, sess)
		}
		if pr.Object < 0 || pr.Object >= u.M() {
			return wire.Response{Err: fmt.Sprintf("probe %d/%d: object %d out of range",
				i+1, len(req.Probes), pr.Object)}
		}
	}
	if charge && s.jw != nil {
		// Write-ahead: a probe is charged iff its record reached the
		// journal. The batch's records go out in one write; if it fails,
		// nothing is charged and the client may retry; never charge a probe
		// a recovery would forget.
		s.jw.Begin()
		for _, pr := range req.Probes {
			_ = s.jw.Probe(sess.id, req.Seq, pr.Player, pr.Object) // a batch's write error surfaces at Flush
		}
		if err := s.jw.Flush(); err != nil {
			return wire.Response{Err: fmt.Sprintf("journal: %v", err)}
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

// doneLocked deregisters the listed players (they found a good object, or
// timed out), each of which must lie in the session's range. Journaled per
// player, in one write, before anyone is deregistered; deregistration is
// idempotent, so a replay is harmless.
func (s *Server) doneLocked(sess *session, req *wire.Request) wire.Response {
	for i, p := range req.Players {
		if !sess.has(p) {
			return outsideRange("done", i, len(req.Players), p, sess)
		}
	}
	if s.jw != nil {
		s.jw.Begin()
		for _, p := range req.Players {
			_ = s.jw.Done(sess.id, req.Seq, p) // a batch's write error surfaces at Flush
		}
		if err := s.jw.Flush(); err != nil {
			return wire.Response{Err: fmt.Sprintf("journal: %v", err)}
		}
	}
	for _, p := range req.Players {
		s.leaveLocked(p)
	}
	return wire.Response{Round: s.round}
}

// postBatchLocked applies a batch's posts, in order, then (when requested)
// arrives — the protocol-v3 fast path. Every post names its player, which
// must lie in the session's range; the whole batch is checked before any
// post is buffered. Past that check the batch is not transactional: an
// invalid post aborts the remainder with an error, leaving earlier posts
// buffered and journaled under the batch's sequence number, whose resend is
// answered without re-applying any of them. The posts' records (and the
// arrival's, when the batch ends the round) reach the journal in one write.
func (s *Server) postBatchLocked(sess *session, req *wire.Request) wire.Response {
	if req.EndRound && req.Epoch < 1 {
		return badStamp(req.Epoch)
	}
	for i, p := range req.Posts {
		if !sess.has(p.Player) {
			return outsideRange("batch post", i, len(req.Posts), p.Player, sess)
		}
	}
	if s.jw != nil {
		s.jw.Begin()
	}
	for i, p := range req.Posts {
		post := billboard.Post{Player: p.Player, Object: p.Object, Value: p.Value, Positive: p.Positive}
		if err := s.board.Post(post); err != nil {
			if err := s.flushJournalLocked(); err != nil {
				return wire.Response{Err: fmt.Sprintf("journal: %v", err)}
			}
			return wire.Response{Err: fmt.Sprintf("batch post %d/%d: %v", i+1, len(req.Posts), err)}
		}
		// The record carries the session and sequence number so recovery
		// can rebuild the dedup window.
		if s.jw != nil {
			_ = s.jw.AppendFrom(sess.id, req.Seq, post) // a batch's write error surfaces at Flush
		}
	}
	if req.EndRound {
		// The posts above are already applied under this lock, so the round
		// the stamp releases necessarily contains them.
		return s.arriveLocked(sess, req.Seq, req.Epoch, true)
	}
	if err := s.flushJournalLocked(); err != nil {
		return wire.Response{Err: fmt.Sprintf("journal: %v", err)}
	}
	return wire.Response{Round: s.round}
}

// flushJournalLocked ends the request's journal batch, writing its records
// in one write (a no-op without a journal or a batch). Caller holds s.mu.
func (s *Server) flushJournalLocked() error {
	if s.jw == nil {
		return nil
	}
	return s.jw.Flush()
}

// arriveLocked takes every arrival — bare (ReqEpoch), fused onto a post
// batch, or a swarm client's resend. It stamps target for every active
// player of the session's range, commits the rounds that closes, and waits
// until the open round reaches target (or the server closes). Stamps are
// monotone, so a repeated or stale arrival changes nothing and is answered
// once its round has committed — at once, if it already has. record is
// false only for a swarm resend, whose original wrote the journal record.
func (s *Server) arriveLocked(sess *session, seq uint64, target int, record bool) wire.Response {
	live := false
	for p := sess.player; p < sess.playerTo && !live; p++ {
		live = s.active[p]
	}
	// Journaled (round-buffered, like the posts): a committed round's
	// arrivals bind the session's dedup window across a restart; an
	// uncommitted round's are rolled back and re-arrive on retry. A swarm
	// session's arrival is one record, Player -1, meaning "all active
	// members of Session". The record joins a fused post batch's records,
	// and the batch is flushed on every path, before any seal can write.
	if record && s.jw != nil {
		if target >= 1 && live {
			player := sess.player
			if sess.swarm {
				player = -1
			}
			_ = s.jw.Barrier(sess.id, seq, player) // a batch's write error surfaces at Flush
		}
		if err := s.jw.Flush(); err != nil {
			return wire.Response{Err: fmt.Sprintf("journal: %v", err)}
		}
	}
	if target < 1 {
		return badStamp(target)
	}
	if !live {
		return wire.Response{Err: "player is done; no arrival"}
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

// stampLocked advances the stamp of every active player of the session's
// range to epoch, counting a player closed when its stamp first passes the
// open round. Stamps are monotone: a stale or replayed frame can never move
// one backwards.
func (s *Server) stampLocked(sess *session, epoch int) {
	for p := sess.player; p < sess.playerTo; p++ {
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

// voteBatchLocked answers a bulk vote read (protocol v7): the committed
// votes of every listed player, concatenated — each VoteMsg names its
// player, so the caller regroups them. Players without votes contribute
// nothing. Serving one frame instead of len(Players) round-trips is what
// keeps a million-player swarm's advice rounds latency-bound on frames,
// not on per-player reads. The answer is read straight from the board's
// vote views into one slice, sized by a counting pass.
func (s *Server) voteBatchLocked(req *wire.Request) wire.Response {
	n := 0
	for _, p := range req.Players {
		if p < 0 || p >= len(s.cfg.Tokens) {
			return wire.Response{Err: fmt.Sprintf("player %d out of range", p)}
		}
		n += len(s.board.VotesView(p))
	}
	out := make([]wire.VoteMsg, 0, n)
	for _, p := range req.Players {
		for _, v := range s.board.VotesView(p) {
			out = append(out, wire.VoteMsg{Player: v.Player, Object: v.Object, Round: v.Round, Value: v.Value})
		}
	}
	return wire.Response{Votes: out, Round: s.round}
}

// votedObjectsLocked reads the voted-object set.
func (s *Server) votedObjectsLocked() wire.Response {
	return wire.Response{Objects: s.board.VotedObjects(), Round: s.round}
}

// windowLocked counts vote events per object in [from, to).
func (s *Server) windowLocked(from, to int) wire.Response {
	return wire.Response{Counts: s.board.CountVotesInWindow(from, to), Round: s.round}
}

func (s *Server) voteCountLocked(obj int) wire.Response {
	if obj < 0 || obj >= s.cfg.Universe.M() {
		return wire.Response{Err: fmt.Sprintf("object %d out of range", obj)}
	}
	return wire.Response{Count: s.board.VoteCount(obj), Round: s.round}
}

func (s *Server) negCountLocked(obj int) wire.Response {
	if obj < 0 || obj >= s.cfg.Universe.M() {
		return wire.Response{Err: fmt.Sprintf("object %d out of range", obj)}
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
// which stamps several rounds ahead may already close.
func (s *Server) advanceLocked() {
	for s.nRegistered >= s.cfg.Expected && s.nActive > 0 &&
		(s.nClosed == s.nActive || s.forced) {
		s.sealLocked()
	}
}

// sealLocked commits the open round and reopens closure for the next one.
func (s *Server) sealLocked() {
	s.board.EndRound()
	s.round++
	s.m.rounds.Inc()
	if s.jw != nil {
		// A marker failure is logged into the error path on the next post;
		// the in-memory board stays authoritative for this process.
		if s.replLog != nil {
			_ = s.jw.EndRoundQuorum(s.replTerm, s.replQuorum)
		} else {
			_ = s.jw.EndRound()
		}
	}
	if s.cfg.Mode == ModeEpoch {
		s.m.epochSeals.Inc()
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
	if s.cfg.Persist != nil && !s.closed && s.cfg.SnapshotEvery > 0 && s.round%s.cfg.SnapshotEvery == 0 {
		s.rotateLocked()
	}
	s.cond.Broadcast()
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
