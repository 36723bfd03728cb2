// Package client is the player-side library for the networked billboard
// service (internal/server). A Client implements billboard.Reader and
// sim.PublicUniverse against the remote server, so the very same protocol
// code (core.Distill and friends) that runs in the in-process engine drives
// a distributed player over TCP.
//
// The transport is fault tolerant beneath that surface: every call carries
// a session id and sequence number (wire protocol v2), and on a transport
// failure the client reconnects, resumes its session, and retries the
// in-flight request with exponential backoff and jitter, bounded by
// Options.Retries and per-call deadlines. The server deduplicates on the
// sequence number, so a retry never re-executes a request whose response
// was lost — in particular, a retried Probe is never charged twice.
//
// The client's session is a player range of one (wire protocol v10): it
// speaks the same batch frames as the swarm driver, each entry naming the
// client's own player. Every request travels on the one connection, whether
// or not the server is sharded (wire protocol v12).
package client

import (
	"bufio"
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/billboard"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Options tunes the client's fault tolerance. The zero value gives sane
// defaults, preserving the original Dial signature's behavior plus
// automatic reconnect.
type Options struct {
	// Dialer overrides the transport dial (default net.Dial "tcp") — the
	// hook internal/faultnet uses for deterministic fault injection.
	Dialer func(addr string) (net.Conn, error)
	// Retries is how many times a failed call is retried (reconnecting and
	// resuming the session first) before the error is reported. Default 8.
	// Negative disables retries.
	Retries int
	// BackoffBase and BackoffMax shape the exponential backoff between
	// retries; actual waits are fully jittered — uniform in (0, step].
	// Defaults 5ms and 500ms.
	BackoffBase, BackoffMax time.Duration
	// CallTimeout bounds one attempt of every call but an arrival (connect,
	// probe, post, reads). Default 30s; negative disables the deadline.
	CallTimeout time.Duration
	// BarrierTimeout bounds one attempt of every arrival: Barrier, and
	// PostBatch with endRound. An arrival blocks legitimately while other
	// players finish their rounds, so the default is 0 (no deadline); set
	// it when fault injection can swallow an arrival (the retry resumes the
	// session and re-arrives idempotently).
	BarrierTimeout time.Duration
	// Seed drives the backoff jitter (default: derived from the player id).
	Seed uint64
	// Fallbacks lists additional server addresses (the other members of a
	// replicated coordinator group). A not-leader rejection steers the
	// client straight to the address the rejection names; a dial failure
	// rotates to the next address in the ring. Empty keeps the classic
	// single-address behavior.
	Fallbacks []string
	// Metrics, when non-nil, receives the client_* metric family (dials,
	// reconnects, retries, backoff time, frames and bytes sent). Share one
	// registry across a fleet of clients to aggregate. Nil disables
	// recording at the cost of one branch per event.
	Metrics *obs.Registry
}

// WithDefaults returns o with every unset knob filled with its default.
// label seeds the default backoff jitter: the player id for a client, the
// first player of the block for a swarm.
func WithDefaults(o Options, label int) Options {
	if o.Dialer == nil {
		o.Dialer = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	if o.Retries == 0 {
		o.Retries = 8
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 5 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 500 * time.Millisecond
	}
	if o.CallTimeout == 0 {
		o.CallTimeout = 30 * time.Second
	}
	if o.CallTimeout < 0 {
		o.CallTimeout = 0
	}
	if o.Seed == 0 {
		o.Seed = 0x9e3779b97f4a7c15 ^ uint64(label)
	}
	return o
}

// Backoff returns o's fully-jittered exponential backoff for an attempt
// (1-based), drawing jitter from src: uniform in (0, min(base·2^(attempt-1),
// max)], or zero for degenerate knobs. WithDefaults normalizes non-positive
// knobs, but a zero-valued Options reaching this directly (or a doubling
// overflow) must yield an immediate retry, not a panic in Uint64n(0).
func Backoff(o Options, src *rng.Source, attempt int) time.Duration {
	step := o.BackoffBase
	for i := 1; i < attempt && step > 0 && step < o.BackoffMax; i++ {
		step *= 2 // overflow drives step non-positive and exits the loop
	}
	if step > o.BackoffMax || step < 0 {
		step = o.BackoffMax
	}
	if step <= 0 {
		return 0
	}
	return time.Duration(1 + src.Uint64n(uint64(step)))
}

// sessionCounter backs session-id generation when crypto/rand fails.
var sessionCounter atomic.Uint64

// NewSessionID picks a client-chosen session id: unique is all that matters
// (it names the session for resume; it carries no randomness the simulation
// depends on). label breaks ties in the fallback when crypto/rand fails.
func NewSessionID(label int) uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		if id := binary.LittleEndian.Uint64(b[:]); id != 0 {
			return id
		}
	}
	return sessionCounter.Add(1)<<16 | uint64(label&0xffff) | 1
}

// Client is one player's authenticated connection to a billboard server.
// It is not safe for concurrent use; each player goroutine owns one Client.
type Client struct {
	addr    string   // current target: the last leader hint or rotation pick
	addrs   []string // rotation ring: primary + Options.Fallbacks
	addrIdx int

	token  string
	player int
	opt    Options

	ctx     context.Context // cancels backoff sleeps and retry loops
	session uint64
	seq     uint64
	conn    net.Conn
	w       io.Writer // encode path: conn, or a counting wrapper over it
	br      *bufio.Reader
	enc     *wire.StreamEncoder // connection-scoped codecs,
	dec     *wire.StreamDecoder // rebuilt with every reconnect
	jitter  *rng.Source
	closed  bool  // set by Close: no further calls, no reconnects
	lastErr error // first unrecovered transport failure; sticky
	resumed bool  // a Hello has succeeded before: later connects are resumes
	met     clientMetrics

	n, m         int
	localTesting bool
	alpha, beta  float64
	costs        []float64
	round        int
}

var (
	_ billboard.Reader   = (*Client)(nil)
	_ sim.PublicUniverse = (*Client)(nil)
)

// serverError marks an application-level rejection from the server during
// connect — permanent: retrying the same credentials cannot succeed.
type serverError struct{ err error }

func (e *serverError) Error() string { return e.err.Error() }
func (e *serverError) Unwrap() error { return e.err }

// Dial connects and authenticates as the given player with default
// Options.
func Dial(addr string, player int, token string) (*Client, error) {
	return DialContext(context.Background(), addr, player, token, Options{})
}

// DialOptions connects and authenticates as the given player, retrying
// transport failures per opt.
func DialOptions(addr string, player int, token string, opt Options) (*Client, error) {
	return DialContext(context.Background(), addr, player, token, opt)
}

// DialContext is DialOptions under a context: cancellation interrupts the
// dial's backoff sleeps, and the context stays attached to the client,
// cutting short every later reconnect/retry loop. A nil ctx means
// context.Background().
func DialContext(ctx context.Context, addr string, player int, token string, opt Options) (*Client, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opt = WithDefaults(opt, player)
	c := &Client{
		addr:    addr,
		addrs:   []string{addr},
		token:   token,
		player:  player,
		opt:     opt,
		ctx:     ctx,
		session: NewSessionID(player),
		jitter:  rng.New(opt.Seed).Split(uint64(player)),
		met:     newClientMetrics(opt.Metrics),
	}
	for _, fb := range opt.Fallbacks {
		if fb != "" && fb != addr {
			c.addrs = append(c.addrs, fb)
		}
	}
	var last error
	for attempt := 0; attempt <= opt.Retries; attempt++ {
		if attempt > 0 {
			c.met.retries.Inc()
			if err := c.sleepBackoff(attempt); err != nil {
				return nil, fmt.Errorf("client: dial %s: %w", addr, err)
			}
		}
		if err := c.connect(); err != nil {
			var perm *serverError
			if errors.As(err, &perm) {
				return nil, perm.err
			}
			last = err
			continue
		}
		return c, nil
	}
	// Every attempt failed to complete a handshake: classify the endpoint
	// as dead so callers can match with errors.Is(err, wire.ErrServerClosed).
	return nil, fmt.Errorf("client: dial %s: retries exhausted: %w (%w)", addr, last, wire.ErrServerClosed)
}

// adoptLeader steers the client to the address a not-leader rejection named
// (or rotates when the rejecting replica did not know the leader).
func (c *Client) adoptLeader(addr string) {
	if addr != "" {
		c.addr = addr
		return
	}
	c.rotateAddr()
}

// rotateAddr advances to the next address in the fallback ring.
func (c *Client) rotateAddr() {
	if len(c.addrs) <= 1 {
		return
	}
	c.addrIdx = (c.addrIdx + 1) % len(c.addrs)
	c.addr = c.addrs[c.addrIdx]
}

// connect dials and performs the Hello handshake. Because the session id is
// fixed at construction, a reconnect resumes the session: registration,
// vote state, and the server-side dedup window all survive. Address
// steering lives here: a dial failure rotates the fallback ring, a
// not-leader rejection adopts the leader it names — both return retryable
// errors so the caller's loop tries the new address.
func (c *Client) connect() error {
	c.met.dials.Inc()
	if c.resumed {
		c.met.reconnects.Inc()
	}
	nc, err := c.opt.Dialer(c.addr)
	if err != nil {
		c.rotateAddr()
		return fmt.Errorf("client: %w", err)
	}
	var w io.Writer = nc
	if c.met.enabled {
		w = &countingWriter{w: nc, bytes: c.met.bytesSent}
	}
	br := bufio.NewReader(nc)
	enc, dec := wire.NewStreamEncoder(w), wire.NewStreamDecoder(br)
	if c.opt.CallTimeout > 0 {
		nc.SetDeadline(time.Now().Add(c.opt.CallTimeout))
	}
	req := wire.Request{
		Type: wire.ReqHello, Player: c.player, Token: c.token,
		Version: wire.Version, Session: c.session,
	}
	if err := enc.EncodeRequest(&req); err != nil {
		nc.Close()
		return fmt.Errorf("client: send hello: %w", err)
	}
	c.met.framesSent.Inc()
	var resp wire.Response
	if err := dec.DecodeResponse(&resp); err != nil {
		nc.Close()
		return fmt.Errorf("client: recv hello: %w", err)
	}
	nc.SetDeadline(time.Time{})
	if e := resp.Error(); e != nil {
		nc.Close()
		if errors.Is(e, wire.ErrNotLeader) {
			c.adoptLeader(resp.Leader)
			return fmt.Errorf("client: hello: %w", e) // retryable: try the leader
		}
		return &serverError{e}
	}
	c.conn, c.w, c.br = nc, w, br
	c.enc, c.dec = enc, dec
	c.resumed = true
	c.n = resp.N
	c.m = resp.M
	c.localTesting = resp.LocalTesting
	c.alpha = resp.Alpha
	c.beta = resp.Beta
	c.costs = resp.Costs
	if resp.Round > c.round {
		c.round = resp.Round
	}
	return nil
}

// drop severs the current transport (keeping the session resumable).
func (c *Client) drop() {
	if c.conn != nil {
		c.conn.Close()
		c.conn, c.w, c.br = nil, nil, nil
		c.enc, c.dec = nil, nil
	}
}

// pause sleeps for d, attributing the wait to client_backoff_seconds_total,
// and returns early with the context's error if it is canceled first.
func (c *Client) pause(d time.Duration) error {
	c.met.backoffSeconds.Add(d.Seconds())
	if c.ctx == nil {
		time.Sleep(d)
		return nil
	}
	if d <= 0 {
		return c.ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-c.ctx.Done():
		return c.ctx.Err()
	}
}

// sleepBackoff sleeps the jittered backoff for an attempt; a non-nil error
// means the client's context was canceled mid-wait.
func (c *Client) sleepBackoff(attempt int) error {
	return c.pause(Backoff(c.opt, c.jitter, attempt))
}

// Close tears down the connection without Done. With a session grace
// window the server keeps the session resumable until the lease expires;
// with no grace (the default server config) it treats the drop as Done, so
// closing mid-round cannot wedge the round.
func (c *Client) Close() error {
	c.closed = true
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn, c.w, c.br = nil, nil, nil
	return err
}

// ErrClosed is returned by calls made after Close.
var ErrClosed = errors.New("client: closed")

// Abort severs the transport abruptly — as a crash or network fault would —
// leaving the client usable: the next call reconnects and resumes the
// session (within the server's grace window). Test and chaos hook.
func (c *Client) Abort() { c.drop() }

// Err reports the first transport failure that retries could not recover
// (nil while the session is healthy). The billboard.Reader methods cannot
// return errors — they report zero values on failure and record it here;
// callers (internal/dist) should check Err once per round.
func (c *Client) Err() error { return c.lastErr }

// Player returns the authenticated player id.
func (c *Client) Player() int { return c.player }

// N returns the total number of players.
func (c *Client) N() int { return c.n }

// Alpha returns the server-advertised assumed honest fraction.
func (c *Client) Alpha() float64 { return c.alpha }

// Beta returns the server-advertised assumed good fraction.
func (c *Client) Beta() float64 { return c.beta }

// call runs one sequenced request, transparently reconnecting, resuming
// the session, and retrying on transport failures. Application-level
// errors from the server are returned as-is and are not retried.
func (c *Client) call(req wire.Request) (*wire.Response, error) {
	if c.closed {
		return nil, ErrClosed
	}
	if c.lastErr != nil {
		return nil, c.lastErr
	}
	c.seq++
	req.Session = c.session
	req.Seq = c.seq
	timeout := c.opt.CallTimeout
	if req.Type == wire.ReqEpoch || (req.Type == wire.ReqPostBatch && req.EndRound) {
		// An arrival blocks legitimately while other players finish their
		// rounds.
		timeout = c.opt.BarrierTimeout
	}
	var last error
	dialFailed := false
	for attempt := 0; attempt <= c.opt.Retries; attempt++ {
		if attempt > 0 {
			c.met.retries.Inc()
			if err := c.sleepBackoff(attempt); err != nil {
				return nil, err // context canceled mid-backoff
			}
		}
		if c.conn == nil {
			if err := c.connect(); err != nil {
				var perm *serverError
				if errors.As(err, &perm) {
					// The session is gone (lease expired, force-done, …):
					// no retry can bring it back.
					c.lastErr = fmt.Errorf("client: resume %v: %w", req.Type, perm.err)
					return nil, c.lastErr
				}
				dialFailed = true
				last = err
				continue
			}
		}
		dialFailed = false
		if timeout > 0 {
			c.conn.SetDeadline(time.Now().Add(timeout))
		}
		if err := c.enc.EncodeRequest(&req); err != nil {
			c.drop()
			last = fmt.Errorf("client: send %v: %w", req.Type, err)
			continue
		}
		c.met.framesSent.Inc()
		resp := new(wire.Response)
		if err := c.dec.DecodeResponse(resp); err != nil {
			c.drop()
			last = fmt.Errorf("client: recv %v: %w", req.Type, err)
			continue
		}
		if timeout > 0 {
			c.conn.SetDeadline(time.Time{})
		}
		if resp.Round > c.round {
			c.round = resp.Round
		}
		if err := resp.Error(); err != nil {
			if errors.Is(err, wire.ErrNotLeader) {
				// The server we were talking to lost its leadership between
				// our requests: follow the redirect and retry there.
				c.adoptLeader(resp.Leader)
				c.drop()
				last = err
				continue
			}
			return nil, err
		}
		return resp, nil
	}
	if dialFailed {
		// The final attempt never reached a live server: best-effort
		// dead-endpoint classification (errors.Is(err, wire.ErrServerClosed)).
		c.lastErr = fmt.Errorf("client: %v: retries exhausted: %w (%w)", req.Type, last, wire.ErrServerClosed)
	} else {
		c.lastErr = fmt.Errorf("client: %v: retries exhausted: %w", req.Type, last)
	}
	return nil, c.lastErr
}

// sim.PublicUniverse implementation (from the Hello payload).

// M returns the number of objects.
func (c *Client) M() int { return c.m }

// Cost returns the public cost of object i.
func (c *Client) Cost(i int) float64 { return c.costs[i] }

// LocalTesting reports the goodness model.
func (c *Client) LocalTesting() bool { return c.localTesting }

// ProbeResult is what a probe reveals to the prober.
type ProbeResult struct {
	Value float64
	Good  bool // meaningful only with local testing
	Cost  float64
}

// Probe pays object obj's cost and reveals its value (plus goodness under
// local testing): a probe batch of one. Retried probes are deduplicated
// server-side: the cost is charged at most once per call. The cost reported
// is the object's public cost from the Hello payload.
func (c *Client) Probe(obj int) (ProbeResult, error) {
	resp, err := c.call(wire.Request{
		Type: wire.ReqProbeBatch, Probes: []wire.ProbeMsg{{Player: c.player, Object: obj}},
	})
	if err != nil {
		return ProbeResult{}, err
	}
	if len(resp.ProbeResults) != 1 || obj < 0 || obj >= len(c.costs) {
		return ProbeResult{}, fmt.Errorf("client: malformed answer to a probe of object %d", obj)
	}
	r := resp.ProbeResults[0]
	return ProbeResult{Value: r.Value, Good: r.Good, Cost: c.costs[obj]}, nil
}

// Post appends a report under the client's authenticated identity: a
// PostBatch of one that does not end the round. Like PostBatch(posts,
// false), it returns before its round commits: a server restart or leader
// failover that rolls the round back discards the report, and nothing
// re-sends it. PostBatch(posts, true) is the durable form.
func (c *Client) Post(obj int, value float64, positive bool) error {
	_, err := c.PostBatch([]BatchPost{{Object: obj, Value: value, Positive: positive}}, false)
	return err
}

// BatchPost is one report inside a PostBatch frame.
type BatchPost struct {
	Object   int
	Value    float64
	Positive bool
}

// PostBatch appends a whole round's reports in one frame (protocol v3) and,
// when endRound is true, makes the same frame the caller's arrival —
// collapsing O(posts) round-trips plus the arrival into a single request.
// The batch runs under one sequence number, so a retry after a lost
// response replays the recorded outcome and never re-applies any post. It
// returns the round number after the call (the new round when endRound is
// set). An empty batch with endRound is exactly a Barrier.
//
// Without endRound the call returns once the posts are journaled, before
// their round commits. A server restart or leader failover that rolls the
// round back discards them, sharded or not, and nothing re-sends them. With
// endRound the posts ride in the arrival frame, which is retried until its
// round commits, so a rolled-back batch executes again: that is the durable
// form.
func (c *Client) PostBatch(posts []BatchPost, endRound bool) (int, error) {
	msgs := make([]wire.PostMsg, len(posts))
	for i, p := range posts {
		msgs[i] = wire.PostMsg{Player: c.player, Object: p.Object, Value: p.Value, Positive: p.Positive}
	}
	req := wire.Request{Type: wire.ReqPostBatch, Posts: msgs, EndRound: endRound}
	if endRound {
		return c.arrive(req)
	}
	resp, err := c.call(req)
	if err != nil {
		return 0, err
	}
	return resp.Round, nil
}

// Barrier ends the caller's round and blocks until the server commits it.
// It returns the new round number.
func (c *Client) Barrier() (int, error) {
	return c.arrive(wire.Request{Type: wire.ReqEpoch})
}

// arrive sends req as the caller's arrival, stamped round+1 ("finished every
// round below it"), and returns the round the server answers once that
// round has committed. The server answers a live arrival only then, so an
// answer below the stamp is a dedup replay recorded before the seal (after
// a crash recovery, say); the bare stamp is then re-sent under a fresh
// sequence number. It waits server-side, so nothing spins.
func (c *Client) arrive(req wire.Request) (int, error) {
	target := c.round + 1
	req.Epoch = target
	for {
		resp, err := c.call(req)
		if err != nil {
			return 0, err
		}
		if resp.Round >= target {
			return resp.Round, nil
		}
		req = wire.Request{Type: wire.ReqEpoch, Epoch: target}
	}
}

// Done deregisters the player from future rounds.
func (c *Client) Done() error {
	_, err := c.call(wire.Request{Type: wire.ReqDone, Players: []int{c.player}})
	return err
}

// billboard.Reader implementation (RPC-backed). Errors are not expressible
// through the Reader interface, so failures surface as zero values here,
// are recorded in Err, and re-surface as errors on the next explicit call;
// the distributed runner additionally checks Err each round.

// noteReadErr records a failure observed on the zero-value Reader path.
// Transport exhaustion is already latched by call; this catches
// application-level rejections, which call returns without recording — a
// rejected read silently answering "no votes" would otherwise steer the
// protocol with fabricated advice and never surface through Err.
func (c *Client) noteReadErr(err error) {
	if err != nil && c.lastErr == nil {
		c.lastErr = err
	}
}

// Round returns the last round number observed from the server.
func (c *Client) Round() int { return c.round }

// Votes returns player p's committed votes.
func (c *Client) Votes(player int) []billboard.Vote {
	resp, err := c.call(wire.Request{Type: wire.ReqVoteBatch, Players: []int{player}})
	if err != nil {
		c.noteReadErr(err)
		return nil
	}
	votes := make([]billboard.Vote, len(resp.Votes))
	for i, v := range resp.Votes {
		votes[i] = billboard.Vote{Player: v.Player, Object: v.Object, Round: v.Round, Value: v.Value}
	}
	return votes
}

// HasVote reports whether player p has a committed vote.
func (c *Client) HasVote(player int) bool { return len(c.Votes(player)) > 0 }

// VoteCount returns object i's committed vote count.
func (c *Client) VoteCount(object int) int {
	resp, err := c.call(wire.Request{Type: wire.ReqVoteCount, Object: object})
	if err != nil {
		c.noteReadErr(err)
		return 0
	}
	return resp.Count
}

// NegativeCount returns object i's negative-report count.
func (c *Client) NegativeCount(object int) int {
	resp, err := c.call(wire.Request{Type: wire.ReqNegCount, Object: object})
	if err != nil {
		c.noteReadErr(err)
		return 0
	}
	return resp.Count
}

// VotedObjects returns the objects currently holding votes.
func (c *Client) VotedObjects() []int {
	resp, err := c.call(wire.Request{Type: wire.ReqVotedObjects})
	if err != nil {
		c.noteReadErr(err)
		return nil
	}
	return resp.Objects
}

// NumVotedObjects returns the number of objects holding votes.
func (c *Client) NumVotedObjects() int { return len(c.VotedObjects()) }

// CountVotesInWindow counts vote events per object in [fromRound, toRound).
func (c *Client) CountVotesInWindow(fromRound, toRound int) map[int]int {
	resp, err := c.call(wire.Request{Type: wire.ReqWindow, From: fromRound, To: toRound})
	if err != nil {
		c.noteReadErr(err)
		return map[int]int{}
	}
	if resp.Counts == nil {
		return map[int]int{}
	}
	return resp.Counts
}

// CountVotesInLast counts vote events per object over the most recent
// `last` closed rounds (protocol v8 sliding window). The server anchors the
// window at its own current round — which an epoch-mode client cannot pin
// in advance, since epochs seal on other players' stamps — and that anchor
// round is returned alongside the counts: the answer covers
// [round-last, round).
func (c *Client) CountVotesInLast(last int) (map[int]int, int) {
	resp, err := c.call(wire.Request{Type: wire.ReqWindow, Last: last})
	if err != nil {
		c.noteReadErr(err)
		return map[int]int{}, c.round
	}
	if resp.Counts == nil {
		return map[int]int{}, resp.Round
	}
	return resp.Counts, resp.Round
}
