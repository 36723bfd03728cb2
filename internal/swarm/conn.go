package swarm

// Pipelined swarm transport. A conn is one TCP connection carrying one
// swarm session (a whole player block): frames are sent with up to
// Config.Window requests outstanding, and the server — which executes each
// connection's frames strictly in order — answers them in order. Sequence
// numbers are assigned once per frame; after a reconnect the unacked tail
// is resent under the same numbers, and the server replays already-executed
// frames idempotently (probe batches recompute without charging, posts and
// dones acknowledge, an arrival re-executes its stamp, which is already in
// place). That is what lets the driver pipeline safely: a lost response
// never turns into a double-applied side effect.
//
// A batch that ends in an arrival closes a round, and a server restart or
// leader failover before that round commits discards its acknowledged posts
// along with it. A reconnect inside such a batch therefore resends it
// from the first frame: the posts the server still holds are answered as
// replays, and the rolled-back ones, which lie above the recovered session's
// sequence number, execute again before the arrival does.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/rng"
	"repro/internal/wire"
)

// permanentError marks an application-level rejection during connect —
// retrying the same credentials cannot succeed.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// transport is the driver-wide connection state every conn shares: the
// context, normalized dial options, pipelining window, metrics, and the
// leader/fallback address ring (a not-leader redirect observed by any conn
// steers them all).
type transport struct {
	ctx    context.Context
	opt    client.Options
	token  string // the shared swarm credential
	window int
	met    *metrics

	mu      sync.Mutex
	addr    string
	addrs   []string
	addrIdx int
}

func (t *transport) curAddr() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.addr
}

// adoptLeader steers every conn to the address a not-leader rejection named
// (or rotates when the rejecting replica did not know the leader).
func (t *transport) adoptLeader(addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if addr != "" {
		t.addr = addr
		return
	}
	t.rotateLocked()
}

func (t *transport) rotateAddr() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rotateLocked()
}

func (t *transport) rotateLocked() {
	if len(t.addrs) <= 1 {
		return
	}
	t.addrIdx = (t.addrIdx + 1) % len(t.addrs)
	t.addr = t.addrs[t.addrIdx]
}

// pause sleeps for d, attributing the wait to swarm_backoff_seconds_total,
// returning early if the context is canceled.
func (t *transport) pause(d time.Duration) error {
	if t.met.enabled {
		t.met.backoffSeconds.Add(d.Seconds())
	}
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

// conn is one pipelined swarm connection: its own session, sequence
// counter, transport state, and backoff jitter. Not safe for concurrent
// use; each conn is owned by one goroutine at a time.
type conn struct {
	t        *transport
	label    string // for error messages: "group 2"
	from, to int    // the swarm member range this session registers

	session uint64
	seq     uint64
	resumed bool

	nc  net.Conn
	br  *bufio.Reader
	enc *wire.StreamEncoder
	dec *wire.StreamDecoder

	jitter *rng.Source
}

// connect dials and performs the swarm Hello handshake. The session id is
// fixed at construction, so a reconnect resumes the session: membership and
// the server-side frame ordering both survive. On success the Hello payload
// is returned (the universe parameters the driver needs from group 0).
func (c *conn) connect() (*wire.Response, error) {
	if c.t.met.enabled {
		c.t.met.dials.Inc()
		if c.resumed {
			c.t.met.reconnects.Inc()
		}
	}
	nc, err := c.t.opt.Dialer(c.t.curAddr())
	if err != nil {
		c.t.rotateAddr()
		return nil, fmt.Errorf("swarm: %s: %w", c.label, err)
	}
	br := bufio.NewReader(nc)
	enc, dec := wire.NewStreamEncoder(nc), wire.NewStreamDecoder(br)
	if c.t.opt.CallTimeout > 0 {
		nc.SetDeadline(time.Now().Add(c.t.opt.CallTimeout))
	}
	req := wire.Request{
		Type: wire.ReqHello, Version: wire.Version, Session: c.session,
		Swarm: true, Player: c.from, PlayerTo: c.to, Token: c.t.token,
	}
	if err := enc.EncodeRequest(&req); err != nil {
		nc.Close()
		return nil, fmt.Errorf("swarm: %s hello: %w", c.label, err)
	}
	if c.t.met.enabled {
		c.t.met.frames.Inc()
	}
	var resp wire.Response
	if err := dec.DecodeResponse(&resp); err != nil {
		nc.Close()
		return nil, fmt.Errorf("swarm: %s hello: %w", c.label, err)
	}
	nc.SetDeadline(time.Time{})
	if e := resp.Error(); e != nil {
		nc.Close()
		if errors.Is(e, wire.ErrNotLeader) {
			c.t.adoptLeader(resp.Leader)
			return nil, fmt.Errorf("swarm: %s hello: %w", c.label, e) // retryable
		}
		return nil, &permanentError{e}
	}
	c.nc, c.br, c.enc, c.dec = nc, br, enc, dec
	c.resumed = true
	return &resp, nil
}

// ensure connects with the full retry/backoff loop (used for the eager
// initial handshakes; exchange reconnects inline afterwards). Returns the
// Hello payload.
func (c *conn) ensure() (*wire.Response, error) {
	var last error
	for attempt := 0; attempt <= c.t.opt.Retries; attempt++ {
		if attempt > 0 {
			if c.t.met.enabled {
				c.t.met.retries.Inc()
			}
			if err := c.t.pause(client.Backoff(c.t.opt, c.jitter, attempt)); err != nil {
				return nil, err
			}
		}
		resp, err := c.connect()
		if err == nil {
			return resp, nil
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			return nil, perm.err
		}
		last = err
	}
	return nil, fmt.Errorf("swarm: %s: retries exhausted: %w (%w)", c.label, last, wire.ErrServerClosed)
}

// drop severs the transport (keeping the session resumable).
func (c *conn) drop() {
	if c.nc != nil {
		c.nc.Close()
		c.nc, c.br, c.enc, c.dec = nil, nil, nil, nil
	}
}

func (c *conn) deadline(d time.Duration) {
	if d > 0 {
		c.nc.SetDeadline(time.Now().Add(d))
	} else {
		c.nc.SetDeadline(time.Time{})
	}
}

// exchange runs a batch of frames over the connection with up to
// transport.window requests outstanding and fills resps positionally.
// Sequence numbers are assigned once, up front; a transport failure
// reconnects (resuming the session) and resends under the same numbers —
// the unacked tail, or the whole batch when it ends in an arrival — so the
// server's in-order replay semantics make the whole batch exactly-once. An
// arrival may legitimately stall on other players, so its answer waits
// under Options.BarrierTimeout instead of CallTimeout. Progress resets the
// retry budget — only consecutive failures that ack no frame beyond the
// furthest one acked so far count against Options.Retries.
func (c *conn) exchange(reqs []wire.Request, resps []wire.Response) error {
	for i := range reqs {
		c.seq++
		reqs[i].Session = c.session
		reqs[i].Seq = c.seq
	}
	rewind := len(reqs) > 0 && reqs[len(reqs)-1].Type == wire.ReqEpoch
	acked, sent, furthest := 0, 0, 0
	attempt := 0
	var last error
	dialFailed := false
	for acked < len(reqs) {
		if err := c.t.ctx.Err(); err != nil {
			return err
		}
		if c.nc == nil {
			attempt++
			if attempt > c.t.opt.Retries+1 {
				if dialFailed {
					// The final attempt never reached a live server:
					// best-effort dead-endpoint classification.
					return fmt.Errorf("swarm: %s: retries exhausted: %w (%w)", c.label, last, wire.ErrServerClosed)
				}
				return fmt.Errorf("swarm: %s: retries exhausted: %w", c.label, last)
			}
			if attempt > 1 {
				if c.t.met.enabled {
					c.t.met.retries.Inc()
				}
				if err := c.t.pause(client.Backoff(c.t.opt, c.jitter, attempt-1)); err != nil {
					return err
				}
			}
			if _, err := c.connect(); err != nil {
				var perm *permanentError
				if errors.As(err, &perm) {
					return fmt.Errorf("swarm: %s resume: %w", c.label, perm.err)
				}
				dialFailed = true
				last = err
				continue
			}
			dialFailed = false
			if rewind {
				acked = 0
			}
			sent = acked // resend from the oldest unacked frame
		}
		// Fill the window.
		encodeFailed := false
		for sent < len(reqs) && sent-acked < c.t.window {
			c.deadline(c.t.opt.CallTimeout)
			if err := c.enc.EncodeRequest(&reqs[sent]); err != nil {
				c.drop()
				last = fmt.Errorf("swarm: %s send: %w", c.label, err)
				encodeFailed = true
				break
			}
			if c.t.met.enabled {
				c.t.met.frames.Inc()
			}
			sent++
		}
		if encodeFailed {
			continue
		}
		// Receive the oldest outstanding response.
		if c.t.met.enabled {
			c.t.met.inflight.Observe(float64(sent - acked))
		}
		if reqs[acked].Type == wire.ReqEpoch {
			c.deadline(c.t.opt.BarrierTimeout)
		} else {
			c.deadline(c.t.opt.CallTimeout)
		}
		resp := &resps[acked]
		*resp = wire.Response{}
		if err := c.dec.DecodeResponse(resp); err != nil {
			c.drop()
			last = fmt.Errorf("swarm: %s recv: %w", c.label, err)
			continue
		}
		c.deadline(0)
		if err := resp.Error(); err != nil {
			if errors.Is(err, wire.ErrNotLeader) {
				// Leadership moved between our frames: follow the redirect
				// and resend the unacked tail there.
				c.t.adoptLeader(resp.Leader)
				c.drop()
				last = err
				continue
			}
			return fmt.Errorf("swarm: %s: %w", c.label, err)
		}
		acked++
		if acked > furthest {
			furthest = acked
			attempt = 0
		}
	}
	return nil
}

// one runs a single frame through exchange and returns its response.
func (c *conn) one(req wire.Request) (*wire.Response, error) {
	reqs := [1]wire.Request{req}
	var resps [1]wire.Response
	if err := c.exchange(reqs[:], resps[:]); err != nil {
		return nil, err
	}
	return &resps[0], nil
}
