package client

// The session connection, the one transport both drivers of the protocol
// share. A Conn is one TCP connection at a time carrying one session: a
// player's own (the Client) or a swarm block's (internal/swarm, one per
// connection group). It owns everything that keeps that session alive: the
// Hello handshake and its resume, retries with backoff, the not-leader
// redirect, the call deadlines and the arrival re-stamp.
//
// Frames are sent with up to the transport's window outstanding, and the
// server, which executes each connection's frames strictly in order,
// answers them in order. Sequence numbers are assigned once per frame;
// after a reconnect the unacked tail is resent under the same numbers, and
// the server answers a frame it already executed without executing it
// again, so a lost response never turns into a double-applied side effect.
// A swarm session answers such resends by recomputation and pipelines. A
// player's own session answers a resend below its last sequence number as
// stale, so the Client runs with a window of one frame.
//
// A batch that ends in an arrival closes a round, and a server restart or
// leader failover before that round commits discards its acknowledged posts
// along with it. A reconnect inside such a batch therefore resends it from
// the first frame: the posts the server still holds are answered as
// replays, and the rolled-back ones, which lie above the recovered
// session's sequence number, execute again before the arrival does.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/wire"
)

// TransportMetrics holds the handles a Transport records into. A nil
// handle records nothing: the Client fills them from the client_* family,
// the swarm from its swarm_* family, and each leaves out what its family
// lacks.
type TransportMetrics struct {
	Dials, Reconnects, Retries, Frames *obs.Counter
	// BytesSent, when non-nil, counts every byte written to the server.
	BytesSent      *obs.Counter
	BackoffSeconds *obs.Gauge
	// Inflight observes the frames outstanding at each answer.
	Inflight *obs.Histogram
}

// Transport is the state every Conn of one driver shares: the context, the
// normalized options, the pipelining window, the metrics, and the
// leader/fallback address ring, so that a not-leader redirect observed by
// any Conn steers them all.
type Transport struct {
	ctx    context.Context
	opt    Options
	window int
	met    TransportMetrics

	mu      sync.Mutex
	addr    string   // current target: the last leader hint or ring pick
	addrs   []string // the ring: the primary address, then opt.Fallbacks
	addrIdx int
}

// NewTransport returns the transport to addr (and opt.Fallbacks) under
// ctx: once ctx is done, every Conn's connection is closed, and its calls,
// blocked or later, fail with ctx's error. A nil ctx means
// context.Background(). opt's unset knobs take their defaults, label
// seeding the default jitter, and each Conn keeps up to window frames
// outstanding.
func NewTransport(ctx context.Context, addr string, opt Options, label, window int, met TransportMetrics) *Transport {
	if ctx == nil {
		ctx = context.Background()
	}
	opt = withDefaults(opt, label)
	t := &Transport{ctx: ctx, opt: opt, window: window, met: met, addr: addr, addrs: []string{addr}}
	for _, fb := range opt.Fallbacks {
		if fb != "" && fb != addr {
			t.addrs = append(t.addrs, fb)
		}
	}
	return t
}

func (t *Transport) curAddr() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.addr
}

// adoptLeader steers every Conn to the address a not-leader rejection named
// (or rotates when the rejecting replica did not know the leader).
func (t *Transport) adoptLeader(addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if addr != "" {
		t.addr = addr
		return
	}
	t.rotateLocked()
}

func (t *Transport) rotateAddr() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rotateLocked()
}

func (t *Transport) rotateLocked() {
	if len(t.addrs) <= 1 {
		return
	}
	t.addrIdx = (t.addrIdx + 1) % len(t.addrs)
	t.addr = t.addrs[t.addrIdx]
}

// pause sleeps for d, attributing the wait to the backoff gauge, and
// returns early with the context's error if it is done first.
func (t *Transport) pause(d time.Duration) error {
	t.met.BackoffSeconds.Add(d.Seconds())
	if d <= 0 {
		return t.ctx.Err()
	}
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-tm.C:
		return nil
	case <-t.ctx.Done():
		return t.ctx.Err()
	}
}

// Conn is one session of a Transport: its id and sequence counter, its
// connection, and its backoff jitter. Not safe for concurrent use; each
// Conn is owned by one goroutine at a time.
type Conn struct {
	t       *Transport
	label   string         // error prefix: "client: player 3", "swarm: group 2"
	hello   wire.Request   // the handshake, session id included
	welcome *wire.Response // the last Hello answer
	seq     uint64
	round   int   // highest round any answer named
	err     error // sticky: the session is lost
	jitter  *rng.Source
	resumed bool // a Hello has succeeded: later ones are resumes

	nc   net.Conn
	stop func() bool // unhooks nc from the transport's context
	enc  *wire.StreamEncoder
	dec  *wire.StreamDecoder
}

// NewConn returns an unconnected session on t, prefixing its errors with
// label. hello names the session and its credential: Player and Token, and
// for a swarm block Swarm and PlayerTo; the session id is chosen here. The
// retry jitter is drawn from stream stream of the transport's seed.
func (t *Transport) NewConn(label string, hello wire.Request, stream uint64) *Conn {
	hello.Type, hello.Version = wire.ReqHello, wire.Version
	hello.Session = newSessionID(hello.Player)
	return &Conn{t: t, label: label, hello: hello, jitter: rng.New(t.opt.Seed).Split(stream)}
}

// Dial connects the session, retrying like Exchange, and returns the Hello
// answer: the universe and round the server advertises.
func (c *Conn) Dial() (*wire.Response, error) {
	if err := c.Exchange(nil, nil); err != nil {
		return nil, err
	}
	return c.welcome, nil
}

// Err reports what lost the session: retries exhausted, or a resume the
// server refused. Nil while the session is usable.
func (c *Conn) Err() error { return c.err }

// Round returns the highest round any answer on the session has named.
func (c *Conn) Round() int { return c.round }

// Close closes the connection, keeping the session resumable: the next
// call dials again and resumes it.
func (c *Conn) Close() error {
	if c.nc == nil {
		return nil
	}
	c.stop()
	err := c.nc.Close()
	c.nc, c.enc, c.dec = nil, nil, nil
	return err
}

// connect dials the current address and runs the Hello handshake. The
// session id is fixed, so a reconnect resumes the session: its players'
// registration and the server's dedup state survive. A dial failure
// rotates the address ring and a not-leader rejection adopts the leader it
// names, so a retry tries the new address. Any other rejection, and an
// answer that breaks the Hello rules (wire.Response.CheckHello), is
// reported as refused: no retry of the same credentials can succeed.
func (c *Conn) connect() (refused bool, err error) {
	t := c.t
	t.met.Dials.Inc()
	if c.resumed {
		t.met.Reconnects.Inc()
	}
	nc, err := t.opt.Dialer(t.curAddr())
	if err != nil {
		t.rotateAddr()
		return false, err
	}
	var w io.Writer = nc
	if t.met.BytesSent != nil {
		w = &countingWriter{w: nc, bytes: t.met.BytesSent}
	}
	c.nc, c.stop = nc, context.AfterFunc(t.ctx, func() { nc.Close() })
	c.enc, c.dec = wire.NewStreamEncoder(w), wire.NewStreamDecoder(bufio.NewReader(nc))
	c.deadline(t.opt.CallTimeout)
	if err := c.enc.EncodeRequest(&c.hello); err != nil {
		c.Close()
		return false, fmt.Errorf("hello: %w", err)
	}
	t.met.Frames.Inc()
	resp := new(wire.Response)
	if err := c.dec.DecodeResponse(resp); err != nil {
		c.Close()
		return false, fmt.Errorf("hello: %w", err)
	}
	c.deadline(0)
	if err := resp.Error(); err != nil {
		c.Close()
		if errors.Is(err, wire.ErrNotLeader) {
			t.adoptLeader(resp.Leader)
			return false, err
		}
		return true, err
	}
	if err := resp.CheckHello(); err != nil {
		c.Close()
		return true, err
	}
	c.resumed, c.welcome = true, resp
	c.round = max(c.round, resp.Round)
	return false, nil
}

func (c *Conn) deadline(d time.Duration) {
	if d > 0 {
		c.nc.SetDeadline(time.Now().Add(d))
	} else {
		c.nc.SetDeadline(time.Time{})
	}
}

// isArrival reports whether req ends its sender's round: a bare stamp, or a
// post batch fused with it.
func isArrival(req *wire.Request) bool {
	return req.Type == wire.ReqEpoch || (req.Type == wire.ReqPostBatch && req.EndRound)
}

// Exchange runs a batch of frames with up to the transport's window
// outstanding and fills resps (as long as reqs) positionally. Sequence
// numbers are assigned once, up front. A transport failure reconnects,
// resuming the session, and resends under the same numbers the unacked
// tail, or the whole batch when it ends in an arrival. An arrival may
// legitimately stall on other players, so its answer waits under
// Options.BarrierTimeout, every other answer under CallTimeout.
//
// Only consecutive failures that ack no frame beyond the furthest one
// acked so far count against Options.Retries: the first reconnect of such
// a streak is immediate, later ones back off, and a streak longer than
// Retries loses the session. A connection already down when the call
// starts is dialed without spending a retry, so a batch of no frames just
// connects. A server rejection fails the call and leaves the session
// usable; a lost session fails this call and every later one.
func (c *Conn) Exchange(reqs []wire.Request, resps []wire.Response) error {
	if c.err != nil {
		return c.err
	}
	t := c.t
	for i := range reqs {
		c.seq++
		reqs[i].Session = c.hello.Session
		reqs[i].Seq = c.seq
	}
	rewind := len(reqs) > 0 && isArrival(&reqs[len(reqs)-1])
	acked, sent, furthest := 0, 0, 0
	failures, dialFailed := 0, false
	var last error
	fail := func(err error) {
		c.Close()
		failures++
		last = err
	}
	for acked < len(reqs) || c.nc == nil {
		if err := t.ctx.Err(); err != nil {
			c.Close() // the context hook closed or is closing it
			return err
		}
		if c.nc == nil {
			if failures > t.opt.Retries {
				if dialFailed {
					// The final attempt never reached a live server:
					// best-effort dead-endpoint classification.
					c.err = fmt.Errorf("%s: retries exhausted: %w (%w)", c.label, last, wire.ErrServerClosed)
				} else {
					c.err = fmt.Errorf("%s: retries exhausted: %w", c.label, last)
				}
				return c.err
			}
			if failures > 0 {
				t.met.Retries.Inc()
			}
			if failures > 1 {
				if err := t.pause(backoff(t.opt, c.jitter, failures-1)); err != nil {
					return err
				}
			}
			refused, err := c.connect()
			if refused {
				c.err = fmt.Errorf("%s: session refused: %w", c.label, err)
				return c.err
			}
			if dialFailed = err != nil; dialFailed {
				fail(err)
				continue
			}
			if rewind {
				acked = 0
			}
			sent = acked // resend from the oldest unacked frame
			continue
		}
		// Fill the window, then read the oldest outstanding answer.
		for sent < len(reqs) && sent-acked < t.window {
			c.deadline(t.opt.CallTimeout)
			if err := c.enc.EncodeRequest(&reqs[sent]); err != nil {
				fail(fmt.Errorf("send: %w", err))
				break
			}
			t.met.Frames.Inc()
			sent++
		}
		if c.nc == nil {
			continue
		}
		t.met.Inflight.Observe(float64(sent - acked))
		if isArrival(&reqs[acked]) {
			c.deadline(t.opt.BarrierTimeout)
		} else {
			c.deadline(t.opt.CallTimeout)
		}
		resp := &resps[acked]
		if err := c.dec.DecodeResponse(resp); err != nil {
			fail(fmt.Errorf("recv: %w", err))
			continue
		}
		c.deadline(0)
		c.round = max(c.round, resp.Round)
		if err := resp.Error(); err != nil {
			if !errors.Is(err, wire.ErrNotLeader) {
				return fmt.Errorf("%s: %w", c.label, err)
			}
			// Leadership moved between our frames: follow the redirect
			// and resend the unacked tail there.
			t.adoptLeader(resp.Leader)
			fail(err)
			continue
		}
		acked++
		if acked > furthest {
			furthest, failures = acked, 0
		}
	}
	return nil
}

// Call runs a single frame through Exchange and returns its answer.
func (c *Conn) Call(req wire.Request) (*wire.Response, error) {
	reqs := [1]wire.Request{req}
	var resps [1]wire.Response
	if err := c.Exchange(reqs[:], resps[:]); err != nil {
		return nil, err
	}
	return &resps[0], nil
}

// Arrive runs reqs, whose last frame is the caller's arrival, with that
// frame stamped target ("finished every round below it"), and returns the
// round its answer names. The server answers a live arrival only once the
// stamped round has committed, so an answer below the stamp is a replay
// recorded before the seal (after a crash recovery, say): the bare stamp is
// then re-sent, in the last slot of reqs and under a fresh sequence number,
// until the answer reaches it. It waits server-side, so nothing spins, and
// the re-stamp allocates nothing.
func (c *Conn) Arrive(reqs []wire.Request, resps []wire.Response, target int) (int, error) {
	last := len(reqs) - 1
	reqs[last].Epoch = target
	for {
		if err := c.Exchange(reqs, resps); err != nil {
			return 0, err
		}
		if round := resps[last].Round; round >= target {
			return round, nil
		}
		reqs[last] = wire.Request{Type: wire.ReqEpoch, Epoch: target}
		reqs, resps, last = reqs[last:], resps[last:], 0
	}
}
