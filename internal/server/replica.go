package server

// Replicated coordinator (wire protocol v5): the billboard service runs as
// a small replica group in which one node — the leader — serves clients
// while streaming its journal stores, byte for byte, to the followers. A
// round is sealed (and any journaled response released) only after a
// majority of the group holds the bytes durably, so killing the leader mid-round
// never loses a committed round: a follower detects the silence, wins an
// election among the survivors, and rebuilds the service from its
// replicated copy — the uncommitted tail is discarded by the same rollback
// fence a single-coordinator restart uses, and the clients' retries re-earn
// it against the new leader.
//
// Replication unit. The leader's persist store is replicated as one raw
// byte stream. Store.SetMirror tees every appended byte slice into the
// node's replicated log (repLog); one sender loop per peer ships the tail
// as appends (wire v16: append, vote request and fetch are the only
// replica messages) and collects acknowledgements; a response leaves the
// leader only once commitWait sees a majority of the group (leader
// included) at or past the position the request produced. Followers apply
// the bytes to their own store and fsync before acking, so "majority
// acked" means "durable on a majority".
//
// Elections. Terms fence leaderships exactly as in Raft's skeleton: every
// replication message carries the sender's term; a receiver holding a newer
// term refuses, and a leader seeing a refusal (or any message) with a newer
// term steps down. A follower that has heard nothing for its (id-staggered)
// election timeout, counted in heartbeat ticks, campaigns; a vote is
// granted only to a candidate whose stream position is at least the
// voter's, which — because vote quorums and ack quorums are both majorities
// — guarantees the winner holds every majority-committed byte. Promotion
// is just the existing durable-restart path run over the replicated store:
// the rollback fence, and a session grace of at least the failover bound.
//
// Divergence. A follower that accepted bytes a dead leader never committed
// holds a journal suffix the new leader does not. A new leader therefore
// resets every follower on first contact of its term (an append with Reset
// set: rotate to the leader's segment base and snapshot, then its first
// bytes), and a position outside the retained segment later resets the
// same way. The reset truncates only uncommitted bytes: committed bytes
// are, by the vote rule, a prefix of the new leader's stream.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/wire"
)

// ReplicaConfigError is a startup validation failure with a stable Code the
// operator (and cmd/billboard-server's exit path) can match on.
type ReplicaConfigError struct {
	Code string // "empty-group", "even-group", "missing-dir", ...
	msg  string
}

func (e *ReplicaConfigError) Error() string {
	return fmt.Sprintf("replica config [%s]: %s", e.Code, e.msg)
}

// NewReplicaConfigError builds a config error with a caller-chosen code —
// for front ends (cmd/billboard-server) layering flag-level validation on
// top of Validate.
func NewReplicaConfigError(code, format string, args ...any) *ReplicaConfigError {
	return &ReplicaConfigError{Code: code, msg: fmt.Sprintf(format, args...)}
}

// ReplicaConfig describes one member of a coordinator replica group.
type ReplicaConfig struct {
	// ID is this node's index into Peers/ClientAddrs.
	ID int
	// Peers lists every member's replication address (ID included); its
	// length is the group size and must be odd so majorities are unique. A
	// round commit waits for durable acknowledgements from a majority of it
	// (leader included).
	Peers []string
	// ClientAddrs lists every member's client-facing address, parallel to
	// Peers — what a follower hands out in not-leader redirects.
	ClientAddrs []string
	// Dir is this node's persistence directory: the replicated store lives
	// there, as a single durable server's does, so promotion is a plain
	// durable restart.
	Dir string
	// HeartbeatEvery paces leader heartbeats and sender retries
	// (default 25ms).
	HeartbeatEvery time.Duration
	// ElectionTimeout is the base leader-silence bound; node ID staggers
	// the effective timeout (+ID*ElectionTimeout/2) so simultaneous
	// candidacies are rare (default 150ms). A node counts the silence in
	// HeartbeatEvery ticks, and a promoted leader keeps recovered sessions
	// resumable for at least failoverGraceTimeouts of the group's longest
	// staggered timeout.
	ElectionTimeout time.Duration
	// Dial opens replication connections (nil means net.Dial "tcp"); the
	// chaos tests swap in faultnet dialers here.
	Dial func(addr string) (net.Conn, error)
	// RepListener / ClientListener, when non-nil, override listening on
	// Peers[ID] / ClientAddrs[ID] (tests pass pre-bound listeners).
	RepListener    net.Listener
	ClientListener net.Listener
	// Logf receives replication events; nil disables.
	Logf func(format string, args ...any)
}

// Validate checks the group's shape, filling defaults in place. Every
// failure is a *ReplicaConfigError with a stable code.
func (rc *ReplicaConfig) Validate() error {
	n := len(rc.Peers)
	if n == 0 {
		return &ReplicaConfigError{Code: "empty-group", msg: "Peers must name at least one replica"}
	}
	if n%2 == 0 {
		return &ReplicaConfigError{Code: "even-group",
			msg: fmt.Sprintf("group size %d is even; majorities need an odd group", n)}
	}
	if rc.ID < 0 || rc.ID >= n {
		return &ReplicaConfigError{Code: "id-out-of-range",
			msg: fmt.Sprintf("ID %d outside [0, %d)", rc.ID, n)}
	}
	if len(rc.ClientAddrs) != n {
		return &ReplicaConfigError{Code: "addr-mismatch",
			msg: fmt.Sprintf("%d client addresses for %d replicas", len(rc.ClientAddrs), n)}
	}
	if rc.Dir == "" {
		return &ReplicaConfigError{Code: "missing-dir", msg: "replication requires a persist directory"}
	}
	if rc.HeartbeatEvery <= 0 {
		rc.HeartbeatEvery = 25 * time.Millisecond
	}
	if rc.ElectionTimeout <= 0 {
		rc.ElectionTimeout = 150 * time.Millisecond
	}
	if rc.Dial == nil {
		rc.Dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	return nil
}

// failoverGraceTimeouts is the promotion grace in units of the group's
// longest staggered election timeout: a promoted leader keeps every
// recovered session resumable at least this long, whatever
// Config.SessionGrace says. A failover is not a client disconnect: a client
// needs the election plus a few of its own retry backoffs to find the new
// leader (3 s for a 3-member group at the default timeout).
const failoverGraceTimeouts = 10

// staggered is member id's election timeout: the base bound plus an
// id-proportional stagger, so replicas time out in a fixed order and
// simultaneous candidacies stay rare.
func (rc *ReplicaConfig) staggered(id int) time.Duration {
	return rc.ElectionTimeout + time.Duration(id)*rc.ElectionTimeout/2
}

// failoverGrace is the least session grace a promoted leader arms.
func (rc *ReplicaConfig) failoverGrace() time.Duration {
	return failoverGraceTimeouts * rc.staggered(len(rc.Peers)-1)
}

// repSendChunk is the size of one retained chunk of a replicated stream,
// and so bounds one RepAppend payload: large tails ship as several frames,
// so a slow link never pins one oversized write.
const repSendChunk = 256 << 10

// repChunk is one fixed-size block of retained stream bytes. A chunk never
// moves once allocated; appends fill the last one in place.
type repChunk = [repSendChunk]byte

// repStream is the replicated byte stream's retained state: the bytes
// appended since the segment base (earlier bytes live only in the base
// snapshot) plus the epoch that fences resets. The bytes [base, pos) are
// kept in chunks: chunk j holds [base+j·C, base+(j+1)·C) for C =
// repSendChunk, so a long tail grows by one chunk at a time instead of
// re-copying itself.
type repStream struct {
	base   int64       // stream offset where chunks start (segment base)
	pos    int64       // end of the retained bytes
	epoch  int         // bumped on every rotate/reset
	snap   []byte      // snapshot standing in for bytes [0, base)
	chunks []*repChunk // retained bytes [base, pos)
}

// append retains p at the end of the stream.
func (st *repStream) append(p []byte) {
	for len(p) > 0 {
		used := st.pos - st.base
		if used == int64(len(st.chunks))*repSendChunk {
			st.chunks = append(st.chunks, new(repChunk))
		}
		n := copy(st.chunks[len(st.chunks)-1][used%repSendChunk:], p)
		st.pos += int64(n)
		p = p[n:]
	}
}

// reset drops every retained byte and starts a new segment at base.
func (st *repStream) reset(base int64, snap []byte) {
	st.base, st.pos, st.chunks, st.snap = base, base, nil, snap
	st.epoch++
}

// repLog is the node's replicated-log bookkeeping: the stream's retained
// tail plus, while leading, each peer's acknowledged position. It is a leaf
// lock — nothing called under its mutex takes any other lock.
type repLog struct {
	mu      sync.Mutex
	cond    *sync.Cond
	stream  repStream
	acked   map[int]int64         // peer → durably acked position
	kicks   map[int]chan struct{} // peer → sender wakeup
	aborted bool
	ackHist *obs.Histogram
}

func newRepLog(hist *obs.Histogram) *repLog {
	l := &repLog{ackHist: hist}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// appendLocal records bytes the local store just appended (the mirror hook
// on a leader; promotion-time recovery writes also land here). p is copied:
// callers reuse their buffers.
func (l *repLog) appendLocal(p []byte) {
	l.mu.Lock()
	l.stream.append(p)
	l.kickLocked()
	l.mu.Unlock()
}

// kickLocked wakes every sender. Caller holds l.mu.
func (l *repLog) kickLocked() {
	for _, ch := range l.kicks {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// extend records bytes a follower applied from its leader.
func (l *repLog) extend(p []byte) {
	l.mu.Lock()
	l.stream.append(p)
	l.mu.Unlock()
}

// noteRotate moves the stream's segment base to its current position: the
// snapshot now stands in for everything before it (leader-side journal
// rotation).
func (l *repLog) noteRotate(snap []byte) {
	l.mu.Lock()
	l.stream.reset(l.stream.pos, snap)
	l.kickLocked()
	l.mu.Unlock()
}

// resetStream adopts a received segment base (the follower side of a reset).
func (l *repLog) resetStream(base int64, snap []byte) {
	l.mu.Lock()
	l.stream.reset(base, snap)
	l.mu.Unlock()
}

// position returns the stream position (the election log-length comparison
// and a received segment's start check).
func (l *repLog) position() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stream.pos
}

// streamView is a consistent snapshot of the stream's retained state. Its
// bytes stay valid after the lock is dropped: chunks never move, appends
// only write past pos, and every reset replaces the chunk list instead of
// reusing it.
type streamView struct {
	base, pos int64
	epoch     int
	snap      []byte
	chunks    []*repChunk
}

func (l *repLog) view() streamView {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := &l.stream
	return streamView{base: st.base, pos: st.pos, epoch: st.epoch, snap: st.snap, chunks: st.chunks}
}

// from returns the retained bytes from stream offset off to the end of its
// chunk (at most repSendChunk bytes, nil at pos), without copying. off must
// lie in [base, pos].
func (v streamView) from(off int64) []byte {
	if off >= v.pos {
		return nil
	}
	rel := off - v.base
	j := rel / repSendChunk
	end := min(v.pos-v.base-j*repSendChunk, repSendChunk)
	return v.chunks[j][rel%repSendChunk : end]
}

// beginLeadership resets the ack table for a fresh leadership: every peer
// starts unacknowledged, every sender gets a kick channel.
func (l *repLog) beginLeadership(peers []int) {
	l.mu.Lock()
	l.acked = make(map[int]int64, len(peers))
	l.kicks = make(map[int]chan struct{}, len(peers))
	for _, p := range peers {
		l.acked[p] = 0
		l.kicks[p] = make(chan struct{}, 1)
	}
	l.aborted = false
	l.mu.Unlock()
}

func (l *repLog) kickChan(peer int) chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.kicks[peer]
}

// ackPeer records a follower's durable position and wakes commit waiters.
func (l *repLog) ackPeer(peer int, pos int64) {
	l.mu.Lock()
	if acked, ok := l.acked[peer]; ok && pos > acked {
		l.acked[peer] = pos
		l.cond.Broadcast()
	}
	l.mu.Unlock()
}

// errCommitAborted reports a commitWait cut short by demotion or shutdown.
var errCommitAborted = errors.New("server: replication commit aborted")

// commitWait blocks until a majority of the group — this leader and half
// its peers — durably holds the bytes written so far. The target is
// captured at entry, so later appends never extend the wait.
func (l *repLog) commitWait() error {
	start := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	target := l.stream.pos
	for !l.aborted {
		n := 1 // self: the leader's own store already holds the bytes
		for _, acked := range l.acked {
			if acked >= target {
				n++
			}
		}
		if n > len(l.acked)/2 {
			l.ackHist.ObserveSince(start)
			return nil
		}
		l.cond.Wait()
	}
	return errCommitAborted
}

// abortWaiters fails every in-flight and future commitWait (until the next
// beginLeadership) — the demotion path runs it before closing the server so
// waiters holding the server lock drain instead of deadlocking.
func (l *repLog) abortWaiters() {
	l.mu.Lock()
	l.aborted = true
	l.cond.Broadcast()
	l.mu.Unlock()
}

// Node roles.
const (
	roleFollower = iota
	roleCandidate
	roleLeader
)

// ReplicaNode is one member of a coordinator replica group: a follower
// applying the leader's journal bytes, or the leader itself running the
// full billboard service over its stores.
type ReplicaNode struct {
	cfg  ReplicaConfig
	scfg Config

	repLn    net.Listener
	clientLn net.Listener

	mu       sync.Mutex
	term     uint64
	votedFor int
	role     int
	leaderID int            // last known leader; -1 when unknown
	silence  int            // election ticks since a leader or a granted vote was last heard
	srv      *Server        // non-nil while leading
	fstore   *journal.Store // the replicated store while following
	leadStop chan struct{}  // closes when this leadership ends
	closed   bool
	conns    map[net.Conn]struct{} // open rep/redirect conns, force-closed on Close

	log  *repLog
	stop chan struct{}
	wg   sync.WaitGroup

	mElections *obs.Counter
	mFailovers *obs.Counter
}

// StartReplica starts one replica-group member. scfg describes the service
// a leader runs; its persistence knobs must be unset — the node owns the
// store (at rc.Dir) and wires it itself. Replica 0 bootstraps as
// the leader of term 1; everyone else starts as a term-1 follower (vote
// spent on node 0) and learns the leader from its first heartbeat.
func StartReplica(rc ReplicaConfig, scfg Config) (*ReplicaNode, error) {
	if err := rc.Validate(); err != nil {
		return nil, err
	}
	if scfg.Persist != nil {
		return nil, &ReplicaConfigError{Code: "persist-conflict",
			msg: "the replica node owns persistence; leave Config.Persist unset"}
	}
	n := &ReplicaNode{
		cfg:      rc,
		scfg:     scfg,
		votedFor: -1,
		leaderID: -1,
		conns:    make(map[net.Conn]struct{}),
		stop:     make(chan struct{}),
		log: newRepLog(scfg.Metrics.Histogram(
			"server_quorum_ack_seconds", "time a commit waited for its durable quorum", nil)),
		mElections: scfg.Metrics.Counter("server_elections_total", "elections started by this replica"),
		mFailovers: scfg.Metrics.Counter("server_failovers_total", "leaderships assumed after a failover"),
	}
	var err error
	if n.repLn = rc.RepListener; n.repLn == nil {
		if n.repLn, err = net.Listen("tcp", rc.Peers[rc.ID]); err != nil {
			return nil, fmt.Errorf("server: replica %d: %w", rc.ID, err)
		}
	}
	if n.clientLn = rc.ClientListener; n.clientLn == nil {
		if n.clientLn, err = net.Listen("tcp", rc.ClientAddrs[rc.ID]); err != nil {
			n.repLn.Close()
			return nil, fmt.Errorf("server: replica %d: %w", rc.ID, err)
		}
	}
	if rc.ID == 0 {
		// Bootstrap: the group needs a first leader before any election can
		// compare logs; node 0 of term 1 is it, and every heartbeat it sends
		// pulls the term-0 followers up.
		n.mu.Lock()
		err = n.becomeLeaderLocked(1, true)
		n.mu.Unlock()
		if err != nil {
			n.repLn.Close()
			n.clientLn.Close()
			return nil, fmt.Errorf("server: replica 0 bootstrap: %w", err)
		}
	} else {
		// Followers join term 1 with their vote already spent on the
		// bootstrap leader. Starting them at term 0 would let a first
		// campaign reuse term 1 and elect a second leader for a term that
		// already has one — the same-term collision term fencing cannot
		// catch.
		n.term = 1
		n.votedFor = 0
		if err := n.openFollowerStoreLocked(); err != nil {
			n.repLn.Close()
			n.clientLn.Close()
			return nil, fmt.Errorf("server: replica %d: %w", rc.ID, err)
		}
	}
	n.wg.Add(3)
	go n.acceptRep()
	go n.acceptClients()
	go n.electionLoop()
	return n, nil
}

// openFollowerStoreLocked opens this node's store for follower-mode
// writes. Stale on-disk content (a previous incarnation's bytes, no longer
// position-aligned with the fresh repLog) is truncated: the leader re-seeds
// us with a reset + snapshot anyway.
func (n *ReplicaNode) openFollowerStoreLocked() error {
	st, err := journal.OpenStore(n.cfg.Dir)
	if err != nil {
		return err
	}
	v := n.log.view()
	if tail, _ := io.ReadAll(st.Tail()); v.pos == v.base &&
		(st.Snapshot() != nil || len(tail) > 0) && v.snap == nil {
		if err := st.Rotate(nil); err != nil {
			st.Close()
			return err
		}
	}
	n.fstore = st
	return nil
}

// closeFollowerStoreLocked closes the follower-mode store (promotion and
// demotion reopen it).
func (n *ReplicaNode) closeFollowerStoreLocked() {
	if n.fstore != nil {
		n.fstore.Close()
		n.fstore = nil
	}
}

// becomeLeaderLocked assumes leadership of term: reopen the store in server
// mode with the replication mirror installed, run the ordinary durable
// restart over it (rollback fence, and a session grace of at least the
// failover bound — all mirrored to the repLog before any sender ships a
// byte), and start the per-peer senders.
// bootstrap marks the startup leadership of replica 0. Caller holds n.mu.
func (n *ReplicaNode) becomeLeaderLocked(term uint64, bootstrap bool) error {
	n.closeFollowerStoreLocked()
	st, err := journal.OpenStore(n.cfg.Dir)
	if err != nil {
		return err
	}
	tail, _ := io.ReadAll(st.Tail())
	hadState := st.Snapshot() != nil || len(tail) > 0
	st.SetMirror(n.log.appendLocal)
	cfg := n.scfg
	cfg.Persist = st
	srv, err := New(cfg)
	if err != nil {
		st.Close()
		return fmt.Errorf("promote: %w", err)
	}
	srv.replLog = n.log
	srv.armSessionGrace(n.cfg.failoverGrace())
	if (bootstrap && hadState) || srv.tailCut {
		// A whole-group cold restart: this node's repLog starts empty while
		// its disk does not, so followers seeded from the buffer would miss
		// the recovered prefix. A promotion whose recovery cut a torn final
		// frame (a leader that died mid-chunk): the repLog still holds the
		// cut bytes, so streaming it would ship them to the followers.
		// Either way rotating folds the recovered state into a snapshot at
		// a new segment base, which the first-contact reset then ships, and
		// the stream equals the wal again.
		srv.ForceRotate()
	}
	n.term = term
	n.votedFor = n.cfg.ID
	n.role = roleLeader
	n.leaderID = n.cfg.ID
	n.srv = srv
	n.leadStop = make(chan struct{})
	var peers []int
	for p := range n.cfg.Peers {
		if p != n.cfg.ID {
			peers = append(peers, p)
		}
	}
	n.log.beginLeadership(peers)
	for _, p := range peers {
		n.wg.Add(1)
		go n.runSender(p, term, n.leadStop)
	}
	if !bootstrap {
		n.mFailovers.Inc()
	}
	n.logf("replica %d: leading term %d (quorum %d/%d)", n.cfg.ID, term, len(n.cfg.Peers)/2+1, len(n.cfg.Peers))
	return nil
}

// demoteLocked ends a leadership: stop the senders, fail the quorum waiters
// (they hold the server lock — aborting first is what lets Close drain),
// close the server and its store, and reopen the store in follower mode.
// Caller holds n.mu.
func (n *ReplicaNode) demoteLocked() {
	if n.role != roleLeader {
		return
	}
	n.role = roleFollower
	n.leaderID = -1
	close(n.leadStop)
	n.log.abortWaiters()
	srv := n.srv
	n.srv = nil
	st := srv.cfg.Persist
	srv.Close()
	st.SetMirror(nil)
	st.Close()
	if !n.closed {
		if err := n.openFollowerStoreLocked(); err != nil {
			n.logf("replica %d: reopen follower store: %v", n.cfg.ID, err)
		}
	}
	n.silence = 0
	n.logf("replica %d: stepped down", n.cfg.ID)
}

func (n *ReplicaNode) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// Leader reports the node's current belief: its own role and the last known
// leader id (-1 when unknown).
func (n *ReplicaNode) Leader() (leading bool, leaderID int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role == roleLeader, n.leaderID
}

// Server returns the service this node runs while leading (nil otherwise).
func (n *ReplicaNode) Server() *Server {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.srv
}

// Term returns the node's current term.
func (n *ReplicaNode) Term() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.term
}

// ClientAddr returns this node's client-facing address.
func (n *ReplicaNode) ClientAddr() string { return n.clientLn.Addr().String() }

// RepAddr returns this node's replication address.
func (n *ReplicaNode) RepAddr() string { return n.repLn.Addr().String() }

// Kill crash-stops the node: listeners close, the leadership (if any) is
// torn down, the store closes. The chaos harness uses it to kill a leader
// mid-round.
func (n *ReplicaNode) Kill() error { return n.Close() }

// Close stops the node and releases every resource.
func (n *ReplicaNode) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	close(n.stop)
	n.demoteLocked()
	n.closeFollowerStoreLocked()
	for conn := range n.conns {
		conn.Close()
	}
	n.mu.Unlock()
	n.repLn.Close()
	n.clientLn.Close()
	n.wg.Wait()
	return nil
}

// track registers a connection for force-close at Close; reports false when
// the node is already closed (caller must drop the connection).
func (n *ReplicaNode) track(conn net.Conn) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return false
	}
	n.conns[conn] = struct{}{}
	return true
}

func (n *ReplicaNode) untrack(conn net.Conn) {
	n.mu.Lock()
	delete(n.conns, conn)
	n.mu.Unlock()
}

// acceptClients serves the client-facing listener. While leading,
// connections are handed to the server; otherwise each gets a not-leader
// redirect naming the best-known leader and is dropped, which is what
// drives the client's failover.
func (n *ReplicaNode) acceptClients() {
	defer n.wg.Done()
	for {
		conn, err := n.clientLn.Accept()
		if err != nil {
			return
		}
		n.mu.Lock()
		srv, leader := n.srv, n.leaderID
		n.mu.Unlock()
		if srv != nil {
			srv.ServeConn(conn)
			continue
		}
		n.wg.Add(1)
		go n.redirect(conn, leader)
	}
}

// redirect answers one request on a non-leader connection with a typed
// not-leader error (carrying the leader's client address when known) and
// closes it.
func (n *ReplicaNode) redirect(conn net.Conn, leader int) {
	defer n.wg.Done()
	defer conn.Close()
	if !n.track(conn) {
		return
	}
	defer n.untrack(conn)
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := wire.DecodeRequest(conn); err != nil {
		return
	}
	resp := wire.Response{
		Err:  fmt.Sprintf("replica %d is not the leader", n.cfg.ID),
		Code: wire.CodeNotLeader,
	}
	if leader >= 0 && leader != n.cfg.ID {
		resp.Leader = n.cfg.ClientAddrs[leader]
	}
	_ = wire.EncodeResponse(conn, &resp)
}

// acceptRep serves the replication listener: leader appends, vote
// requests, catch-up fetches.
func (n *ReplicaNode) acceptRep() {
	defer n.wg.Done()
	for {
		conn, err := n.repLn.Accept()
		if err != nil {
			return
		}
		n.wg.Add(1)
		go n.handleRep(conn)
	}
}

func (n *ReplicaNode) handleRep(conn net.Conn) {
	defer n.wg.Done()
	defer conn.Close()
	if !n.track(conn) {
		return
	}
	defer n.untrack(conn)
	dec := wire.NewRepStreamDecoder(bufio.NewReader(conn))
	enc := wire.NewStreamEncoder(conn)
	var msg wire.RepMsg
	for {
		select {
		case <-n.stop:
			return
		default:
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		// msg.Data's buffer is reused: applyRep copies an append's payload
		// into the store and the repLog, and keeps none of it.
		if err := dec.DecodeRep(&msg); err != nil {
			return
		}
		ack := n.applyRep(&msg)
		conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
		if err := enc.EncodeRepAck(&ack); err != nil {
			return
		}
	}
}

// applyRep processes one replication message under the node lock: term
// fencing first (a newer term demotes a leader on the spot), then the
// per-type handling.
func (n *ReplicaNode) applyRep(msg *wire.RepMsg) wire.RepAck {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return wire.RepAck{OK: false, Term: n.term, Err: "replica closed"}
	}
	if msg.Term > n.term {
		n.term = msg.Term
		n.votedFor = -1
		if n.role == roleLeader {
			n.demoteLocked()
		} else {
			n.role = roleFollower
		}
	}
	if msg.Term < n.term {
		return wire.RepAck{OK: false, Term: n.term}
	}
	switch msg.Type {
	case wire.RepVoteReq:
		return n.voteLocked(msg)
	case wire.RepFetch:
		return n.serveFetchLocked(msg)
	}
	if msg.Type != wire.RepAppend {
		return wire.RepAck{OK: false, Term: n.term, Err: fmt.Sprintf("unknown message %v", msg.Type)}
	}
	// A leader refusing its own term's appends is unreachable (one leader
	// per term), but refuse defensively rather than corrupt the store the
	// server owns.
	if n.role == roleLeader {
		return wire.RepAck{OK: false, Term: n.term, Err: "already leading this term"}
	}
	n.role = roleFollower
	n.leaderID = msg.From
	n.silence = 0 // every append, empty ones included, is the leader's heartbeat
	return n.applySegmentLocked(msg.Reset, msg.Offset, msg.Snapshot, msg.Data)
}

// applySegmentLocked applies one received stream segment, a leader's
// append or a fetch reply, to the follower store and the repLog. A reset
// first rotates the store behind snap and adopts off as the stream
// position. The segment's data must then start at the position; it is
// written and fsynced before the position moves past it, and an empty
// segment writes and fsyncs nothing. The ack carries the new position, or,
// on a refusal, where the stream stands. Caller holds n.mu.
func (n *ReplicaNode) applySegmentLocked(reset bool, off int64, snap, data []byte) wire.RepAck {
	if n.fstore == nil {
		return wire.RepAck{OK: false, Term: n.term, Err: "no follower store"}
	}
	if reset {
		if err := n.fstore.Rotate(snap); err != nil {
			return wire.RepAck{OK: false, Term: n.term, Err: err.Error()}
		}
		n.log.resetStream(off, snap)
	}
	pos := n.log.position()
	if off != pos {
		// Position mismatch: report where we are so the sender can rewind
		// or reset.
		return wire.RepAck{OK: false, Term: n.term, Offset: pos}
	}
	if len(data) > 0 {
		if _, err := n.fstore.Write(data); err != nil {
			return wire.RepAck{OK: false, Term: n.term, Offset: pos, Err: err.Error()}
		}
		if err := n.fstore.Sync(); err != nil {
			return wire.RepAck{OK: false, Term: n.term, Offset: pos, Err: err.Error()}
		}
		n.log.extend(data)
	}
	return wire.RepAck{OK: true, Term: n.term, Offset: pos + int64(len(data))}
}

// voteLocked decides one vote request: grant iff this term's vote is free
// (or already the candidate's) and the candidate's stream position is at
// least ours — the rule that makes every quorum-committed byte survive into
// the next leadership. Every reply carries our position; on a denial it is
// the candidate's catch-up hint.
func (n *ReplicaNode) voteLocked(msg *wire.RepMsg) wire.RepAck {
	mine := n.log.position()
	if n.role == roleLeader || (n.votedFor != -1 && n.votedFor != msg.From) || msg.Offset < mine {
		return wire.RepAck{OK: false, Term: n.term, Offset: mine}
	}
	n.votedFor = msg.From
	n.silence = 0 // a granted vote defers our own candidacy
	return wire.RepAck{OK: true, Term: n.term, Offset: mine}
}

// serveFetchLocked answers a catch-up fetch from our retained stream state:
// bytes from the requested offset, or — when the offset predates our
// segment base — the segment's snapshot and first bytes as a reset. A reply
// carries at most one chunk; the fetcher asks again from where it ends.
func (n *ReplicaNode) serveFetchLocked(msg *wire.RepMsg) wire.RepAck {
	v := n.log.view()
	if msg.Offset < v.base {
		return wire.RepAck{OK: true, Term: n.term, Reset: true, Offset: v.base, Snapshot: v.snap, Data: v.from(v.base)}
	}
	if msg.Offset > v.pos {
		return wire.RepAck{OK: false, Term: n.term, Offset: v.pos, Err: "offset beyond stream"}
	}
	return wire.RepAck{OK: true, Term: n.term, Offset: msg.Offset, Data: v.from(msg.Offset)}
}

// runSender replicates this leadership's stream to one peer. It is one
// loop over the peer's position, which it keeps across reconnects for the
// whole leadership (-1 until the first contact resets the peer): every
// message is an append from that position, and each reply moves it. It
// ends with the leadership.
func (n *ReplicaNode) runSender(peer int, term uint64, stop chan struct{}) {
	defer n.wg.Done()
	kick := n.log.kickChan(peer)
	next := int64(-1)
	for {
		select {
		case <-stop:
			return
		default:
		}
		if conn, err := n.cfg.Dial(n.cfg.Peers[peer]); err == nil {
			n.replicate(newRepLink(conn), peer, term, stop, kick, &next)
			conn.Close()
		}
		select {
		case <-stop:
			return
		case <-kick:
		case <-time.After(n.cfg.HeartbeatEvery):
		}
	}
}

// repLink is the dialing side of one replication connection: messages go
// out through a connection-scoped stream encoder, one Write each, and acks
// come back through a stream decoder, each reusing its buffer for the
// connection's life.
type repLink struct {
	conn net.Conn
	enc  *wire.StreamEncoder
	dec  *wire.StreamDecoder
}

func newRepLink(conn net.Conn) *repLink {
	return &repLink{
		conn: conn,
		enc:  wire.NewStreamEncoder(conn),
		dec:  wire.NewRepStreamDecoder(bufio.NewReader(conn)),
	}
}

// roundTrip runs one request/ack exchange with deadlines.
func (l *repLink) roundTrip(msg *wire.RepMsg) (*wire.RepAck, error) {
	l.conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	if err := l.enc.EncodeRep(msg); err != nil {
		return nil, err
	}
	l.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	ack := new(wire.RepAck)
	if err := l.dec.DecodeRepAck(ack); err != nil {
		return nil, err
	}
	return ack, nil
}

// replicate drives one connection of runSender's loop. Each message is an
// append from the peer's position *next: a reset when the position lies
// outside the retained segment (always on first contact), empty as the
// connection's first message (the position probe) and at the tail (the
// heartbeat), and otherwise the next chunk. An accepted append acks the
// position its reply carries; a refused one rewinds to it. Returns when the
// connection fails, the peer refuses with an error or a newer term, or the
// leadership ends.
func (n *ReplicaNode) replicate(link *repLink, peer int, term uint64, stop, kick chan struct{}, next *int64) {
	probe := true
	for {
		select {
		case <-stop:
			return
		default:
		}
		v := n.log.view()
		msg := wire.RepMsg{Type: wire.RepAppend, Term: term, From: n.cfg.ID, Offset: *next}
		switch {
		case *next < v.base || *next > v.pos:
			msg.Reset, msg.Offset, msg.Snapshot, msg.Data = true, v.base, v.snap, v.from(v.base)
		case !probe:
			msg.Data = v.from(*next)
		}
		probe = false
		ack, err := link.roundTrip(&msg)
		if err != nil || n.maybeStepDown(ack.Term, term) || ack.Err != "" {
			return
		}
		*next = ack.Offset
		if ack.OK {
			n.log.ackPeer(peer, *next)
		}
		if !ack.OK || *next < v.pos {
			continue
		}
		select {
		case <-stop:
			return
		case <-kick:
		case <-time.After(n.cfg.HeartbeatEvery):
		}
	}
}

// maybeStepDown demotes this node when a peer reported a newer term than
// the leadership the caller is driving. Returns true when the reply was a
// term fence (so the sender must exit).
func (n *ReplicaNode) maybeStepDown(peerTerm, myTerm uint64) bool {
	if peerTerm <= myTerm {
		return false
	}
	n.mu.Lock()
	if peerTerm > n.term {
		n.term = peerTerm
		n.votedFor = -1
	}
	if n.role == roleLeader && n.srv != nil {
		n.demoteLocked()
	}
	n.mu.Unlock()
	return true
}
