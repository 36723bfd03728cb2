// Package client is the session transport of the networked billboard
// service (internal/server) and the player-side library over it. A Client
// implements sim.PublicUniverse against the remote server, and a Cached
// reader over it implements billboard.Reader with a per-round read cache,
// so the very same protocol code (core.Distill and friends) that runs in
// the in-process engine drives a distributed player over TCP.
//
// The transport, a Conn on a Transport, is the one implementation of the
// session both drivers speak: the Client rides one with a window of one
// frame, and the swarm driver (internal/swarm) one per connection group
// with a pipelining window. Every frame carries a session id and sequence
// number (wire protocol v2), and on a transport failure the Conn
// reconnects, resumes its session, and resends the unanswered frames with
// backoff and jitter, bounded by Options.Retries and the call deadlines.
// The server deduplicates on the sequence number, so a resend never
// re-executes a request whose response was lost — in particular, a retried
// Probe is never charged twice. A Transport's context ends its calls, even
// one blocked in an arrival.
//
// The client's session is a player range of one (wire protocol v10): it
// speaks the same batch frames as the swarm driver, each entry naming the
// client's own player. Every request travels on the one connection (wire
// protocol v12).
package client

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Options tunes the session transport's fault tolerance, for a Client and
// for the swarm driver alike. The zero value gives sane defaults, preserving
// the original Dial signature's behavior plus automatic reconnect.
type Options struct {
	// Dialer overrides the transport dial (default net.Dial "tcp") — the
	// hook internal/faultnet uses for deterministic fault injection.
	Dialer func(addr string) (net.Conn, error)
	// Retries bounds a streak of consecutive failures that ack no new
	// frame: at most Retries of them are retried, each by reconnecting and
	// resuming the session (the first at once, later ones after a
	// backoff), before the call fails and the session is lost. A
	// connection already down when a call starts (after Client.Abort, say)
	// is dialed without spending a retry. Default 8; negative disables
	// retries.
	Retries int
	// BackoffBase and BackoffMax shape the exponential backoff before the
	// second and later retries of a streak; actual waits are fully
	// jittered — uniform in (0, step]. Defaults 5ms and 500ms.
	BackoffBase, BackoffMax time.Duration
	// CallTimeout bounds the handshake, each frame's send, and the wait for
	// every answer but an arrival's. Default 30s; negative disables the
	// deadline.
	CallTimeout time.Duration
	// BarrierTimeout bounds the wait for an arrival's answer: Barrier, and
	// PostBatch with endRound (a swarm group's stamp alike). An arrival
	// blocks legitimately while other players finish their rounds, so the
	// default is 0 (no deadline); set it when fault injection can swallow
	// an arrival (the retry resumes the session and re-arrives
	// idempotently).
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

// withDefaults returns o with every unset knob filled with its default.
// label seeds the default backoff jitter: the player id for a client, the
// first player of the block for a swarm.
func withDefaults(o Options, label int) Options {
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

// backoff returns o's fully-jittered exponential backoff for an attempt
// (1-based), drawing jitter from src: uniform in (0, min(base·2^(attempt-1),
// max)], or zero for degenerate knobs. withDefaults normalizes non-positive
// knobs, but a zero-valued Options reaching this directly (or a doubling
// overflow) must yield an immediate retry, not a panic in Uint64n(0).
func backoff(o Options, src *rng.Source, attempt int) time.Duration {
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

// newSessionID picks a client-chosen session id: unique is all that matters
// (it names the session for resume; it carries no randomness the simulation
// depends on). label breaks ties in the fallback when crypto/rand fails.
func newSessionID(label int) uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		if id := binary.LittleEndian.Uint64(b[:]); id != 0 {
			return id
		}
	}
	return sessionCounter.Add(1)<<16 | uint64(label&0xffff) | 1
}

// Client is one player's authenticated connection to a billboard server:
// a thin player API over one session Conn with a window of one frame. It
// is not safe for concurrent use; each player goroutine owns one Client.
type Client struct {
	conn    *Conn
	player  int
	closed  bool  // set by Close: no further calls, no reconnects
	readErr error // the first failed read of a Cached reader; sticky

	n, m         int
	localTesting bool
	alpha, beta  float64
	costs        []float64
}

var _ sim.PublicUniverse = (*Client)(nil)

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

// DialContext is DialOptions under a context, which stays attached to the
// client. Once it is done, the dial or call in progress fails with its
// error, even one blocked in an arrival or a backoff sleep, and so does
// every later call. A nil ctx means context.Background(). A dial that
// exhausts its retries without completing a handshake wraps
// wire.ErrServerClosed.
func DialContext(ctx context.Context, addr string, player int, token string, opt Options) (*Client, error) {
	// A player's own session answers a resend below its last sequence
	// number as stale, so the client must not pipeline: a window of one.
	t := NewTransport(ctx, addr, opt, player, 1, newClientMetrics(opt.Metrics))
	conn := t.NewConn(fmt.Sprintf("client: player %d", player),
		wire.Request{Player: player, Token: token}, uint64(player))
	hello, err := conn.Dial()
	if err != nil {
		return nil, err
	}
	return &Client{
		conn: conn, player: player,
		n: hello.N, m: hello.M, localTesting: hello.LocalTesting,
		alpha: hello.Alpha, beta: hello.Beta, costs: hello.Costs,
	}, nil
}

// Close tears down the connection without Done. With a session grace
// window the server keeps the session resumable until the lease expires;
// with no grace (the default server config) it treats the drop as Done, so
// closing mid-round cannot wedge the round.
func (c *Client) Close() error {
	c.closed = true
	return c.conn.Close()
}

// ErrClosed is returned by calls made after Close.
var ErrClosed = errors.New("client: closed")

// Abort severs the transport abruptly — as a crash or network fault would —
// leaving the client usable: the next call reconnects and resumes the
// session (within the server's grace window). Test and chaos hook.
func (c *Client) Abort() { c.conn.Close() }

// Err reports the first failure the client could not recover from: a lost
// session (retries exhausted, resume refused) or a failed read of a Cached
// reader over it. Nil while the session is healthy. The billboard.Reader
// methods cannot return errors — they answer zero values on failure and
// record it here; a driver checks Err once per round.
func (c *Client) Err() error {
	if c.readErr != nil {
		return c.readErr
	}
	return c.conn.Err()
}

// noteReadErr records a failed read of a Cached reader over this client,
// which the Reader interface cannot return: the read answered a zero
// value. A lost session is already latched by the Conn; this also catches
// a read the server refused, which would otherwise steer the protocol with
// fabricated advice and never surface through Err. The session stays
// usable.
func (c *Client) noteReadErr(err error) {
	if c.readErr == nil {
		c.readErr = err
	}
}

// Player returns the authenticated player id.
func (c *Client) Player() int { return c.player }

// Round returns the last round number observed from the server.
func (c *Client) Round() int { return c.conn.Round() }

// N returns the total number of players.
func (c *Client) N() int { return c.n }

// Alpha returns the server-advertised assumed honest fraction.
func (c *Client) Alpha() float64 { return c.alpha }

// Beta returns the server-advertised assumed good fraction.
func (c *Client) Beta() float64 { return c.beta }

// call runs one request on the session (see Conn.Exchange for its retries).
// Application-level errors from the server fail the call and are not
// retried.
func (c *Client) call(req wire.Request) (*wire.Response, error) {
	if c.closed {
		return nil, ErrClosed
	}
	return c.conn.Call(req)
}

// arrive sends req as the caller's arrival, stamped one past the client's
// round, and returns the round the server answers once that round has
// committed (see Conn.Arrive).
func (c *Client) arrive(req wire.Request) (int, error) {
	if c.closed {
		return 0, ErrClosed
	}
	reqs := [1]wire.Request{req}
	var resps [1]wire.Response
	return c.conn.Arrive(reqs[:], resps[:], c.conn.Round()+1)
}

// sim.PublicUniverse implementation (from the Hello payload).

// M returns the number of objects.
func (c *Client) M() int { return c.m }

// Cost returns the public cost of object i.
func (c *Client) Cost(i int) float64 { return wire.Cost(c.costs, i) }

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
	if len(resp.ProbeResults) != 1 || obj < 0 || obj >= c.m {
		return ProbeResult{}, fmt.Errorf("client: malformed answer to a probe of object %d", obj)
	}
	r := resp.ProbeResults[0]
	return ProbeResult{Value: r.Value, Good: r.Good, Cost: c.Cost(obj)}, nil
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
// round back discards them, and nothing re-sends them. With
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

// Done deregisters the player from future rounds.
func (c *Client) Done() error {
	_, err := c.call(wire.Request{Type: wire.ReqDone, Players: []int{c.player}})
	return err
}
