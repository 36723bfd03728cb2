package client

// Shard-lane data plane (wire protocol v4). Against a sharded server the
// client keeps one lane connection per shard — dialed lazily, resumed
// independently — and splits each round's post batch by the shared shard
// map, pipelining the per-shard sub-batches concurrently. Each post carries
// a client-assigned running index, so the server's commit reassembles the
// player's original posting order no matter how the lanes interleaved.
// Reads, probes, and barriers stay on the primary connection; only posts
// scatter.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/rng"
	"repro/internal/wire"
)

// clientLane is the client half of one shard-lane connection: its own
// session, sequence counter, transport, and backoff jitter, so concurrent
// per-shard sends never share mutable state.
type clientLane struct {
	shard   int
	session uint64
	seq     uint64
	conn    net.Conn
	w       io.Writer
	br      *bufio.Reader
	enc     *wire.StreamEncoder // connection-scoped codecs (protocol v6):
	dec     *wire.StreamDecoder // the lane hot path encodes with no codec compile
	jitter  *rng.Source
}

// setupLanes builds the lane table once the Hello reply advertised the
// server's shard count. Connections are dialed lazily at first use.
func (c *Client) setupLanes(shards int) {
	c.shards = shards
	if shards <= 1 || len(c.lanes) == shards {
		return
	}
	c.lanes = make([]*clientLane, shards)
	for k := range c.lanes {
		c.lanes[k] = &clientLane{
			shard:   k,
			session: NewSessionID(c.player),
			jitter:  rng.New(c.opt.Seed).Split(uint64(c.player)).Split(0x10000 + uint64(k)),
		}
	}
}

// laneConnect dials and lane-Hellos one shard connection (resuming the
// lane's session on reconnect, exactly like the primary).
func (c *Client) laneConnect(l *clientLane) error {
	c.met.dials.Inc()
	nc, err := c.opt.Dialer(c.curAddr())
	if err != nil {
		c.rotateAddr()
		return fmt.Errorf("client: lane %d: %w", l.shard, err)
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
		Version: wire.Version, Session: l.session,
		Lane: true, Shard: l.shard,
	}
	if err := enc.EncodeRequest(&req); err != nil {
		nc.Close()
		return fmt.Errorf("client: lane %d hello: %w", l.shard, err)
	}
	c.met.framesSent.Inc()
	var resp wire.Response
	if err := dec.DecodeResponse(&resp); err != nil {
		nc.Close()
		return fmt.Errorf("client: lane %d hello: %w", l.shard, err)
	}
	nc.SetDeadline(time.Time{})
	if e := resp.Error(); e != nil {
		nc.Close()
		if errors.Is(e, wire.ErrNotLeader) {
			c.adoptLeader(resp.Leader)
			return fmt.Errorf("client: lane %d hello: %w", l.shard, e) // retryable
		}
		return &serverError{e}
	}
	l.conn, l.w, l.br = nc, w, br
	l.enc, l.dec = enc, dec
	return nil
}

func (l *clientLane) drop() {
	if l.conn != nil {
		l.conn.Close()
		l.conn, l.w, l.br = nil, nil, nil
		l.enc, l.dec = nil, nil
	}
}

// laneCall runs one sequenced request on a lane with the same
// reconnect/resume/retry loop as the primary call path. Safe to run
// concurrently across distinct lanes: it touches only the lane's state and
// the client's atomic metrics. It never latches c.lastErr — the scatter
// join does that single-threaded.
func (c *Client) laneCall(l *clientLane, req wire.Request) (*wire.Response, error) {
	if c.closed {
		return nil, ErrClosed
	}
	l.seq++
	req.Session = l.session
	req.Seq = l.seq
	var last error
	dialFailed := false
	for attempt := 0; attempt <= c.opt.Retries; attempt++ {
		if attempt > 0 {
			c.met.retries.Inc()
			if err := c.pause(Backoff(c.opt, l.jitter, attempt)); err != nil {
				return nil, err // context canceled mid-backoff
			}
		}
		if l.conn == nil {
			if err := c.laneConnect(l); err != nil {
				var perm *serverError
				if errors.As(err, &perm) {
					return nil, fmt.Errorf("client: lane %d resume: %w", l.shard, perm.err)
				}
				dialFailed = true
				last = err
				continue
			}
			c.met.reconnects.Inc()
		}
		dialFailed = false
		if c.opt.CallTimeout > 0 {
			l.conn.SetDeadline(time.Now().Add(c.opt.CallTimeout))
		}
		if err := l.enc.EncodeRequest(&req); err != nil {
			l.drop()
			last = fmt.Errorf("client: lane %d send: %w", l.shard, err)
			continue
		}
		c.met.framesSent.Inc()
		resp := new(wire.Response)
		if err := l.dec.DecodeResponse(resp); err != nil {
			l.drop()
			last = fmt.Errorf("client: lane %d recv: %w", l.shard, err)
			continue
		}
		if c.opt.CallTimeout > 0 {
			l.conn.SetDeadline(time.Time{})
		}
		if err := resp.Error(); err != nil {
			if errors.Is(err, wire.ErrNotLeader) {
				c.adoptLeader(resp.Leader)
				l.drop()
				last = err
				continue
			}
			return nil, err
		}
		return resp, nil
	}
	if dialFailed {
		// The final attempt never reached a live server — the best-effort
		// dead-endpoint classification the ErrServerClosed contract promises.
		return nil, &exhaustedError{fmt.Errorf("client: lane %d: retries exhausted: %w (%w)", l.shard, last, wire.ErrServerClosed)}
	}
	return nil, &exhaustedError{fmt.Errorf("client: lane %d: retries exhausted: %w", l.shard, last)}
}

// exhaustedError marks a transport failure retries could not recover; the
// single-threaded caller latches it into c.lastErr.
type exhaustedError struct{ err error }

func (e *exhaustedError) Error() string { return e.err.Error() }
func (e *exhaustedError) Unwrap() error { return e.err }

// scatterPosts splits an indexed batch by the shard map and sends the
// per-shard sub-batches concurrently, one goroutine per nonempty lane. The
// first failure is returned (and, if it was transport exhaustion, latched
// as the client's sticky error).
func (c *Client) scatterPosts(msgs []wire.PostMsg) error {
	parts := make([][]wire.PostMsg, c.shards)
	for _, m := range msgs {
		k := wire.Shard(m.Object, c.shards)
		parts[k] = append(parts[k], m)
	}
	lanes := 0
	lastLane := -1
	for k, part := range parts {
		if len(part) > 0 {
			lanes++
			lastLane = k
		}
	}
	var firstErr error
	if lanes == 1 {
		_, firstErr = c.laneCall(c.lanes[lastLane], wire.Request{
			Type: wire.ReqPostBatch, Posts: parts[lastLane], Shard: lastLane,
		})
	} else {
		errs := make([]error, c.shards)
		var wg sync.WaitGroup
		for k, part := range parts {
			if len(part) == 0 {
				continue
			}
			wg.Add(1)
			go func(k int, part []wire.PostMsg) {
				defer wg.Done()
				_, errs[k] = c.laneCall(c.lanes[k], wire.Request{
					Type: wire.ReqPostBatch, Posts: part, Shard: k,
				})
			}(k, part)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				firstErr = err
				break
			}
		}
	}
	if firstErr != nil {
		var ex *exhaustedError
		if errors.As(firstErr, &ex) && c.lastErr == nil {
			c.lastErr = firstErr
		}
		return firstErr
	}
	return nil
}

// stampIndices assigns the client's running post index to a batch — the
// order key the sharded server commits by — without advancing the counter.
// The caller commits the advance with commitIndices only after the scatter
// succeeded: a batch that failed mid-flight (a lane answering "server
// closed" during a shard bounce, say) leaves the counter untouched, so a
// retry after the session resumes re-stamps the very same indices instead
// of double-advancing the running index and tearing a hole in the player's
// commit order. Only used when sharded, so the classic 1-shard wire
// traffic stays exactly as before.
func (c *Client) stampIndices(msgs []wire.PostMsg) {
	for i := range msgs {
		msgs[i].Index = c.postSeq + i
	}
}

// commitIndices advances the running post index past a successfully
// scattered batch.
func (c *Client) commitIndices(msgs []wire.PostMsg) {
	c.postSeq += len(msgs)
}

// Shards reports the server-advertised shard count (1 for an unsharded
// server; 0 before the first successful Hello).
func (c *Client) Shards() int { return c.shards }

// closeLanes tears down the lane connections (Close path).
func (c *Client) closeLanes() {
	for _, l := range c.lanes {
		l.drop()
	}
}
