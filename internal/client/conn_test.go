package client_test

// The session transport's contract, on a scripted server: the pipelining
// window, the resend after a drop (the unacked tail, or the whole batch
// when it ends in an arrival), and the deadline each answer waits under.

import (
	"bufio"
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/wire"
)

// frame is what the scripted server saw of one request.
type frame struct {
	conn        int // connection number, from 1
	seq         uint64
	typ         wire.ReqType
	endRound    bool
	tag         int // the first player, or the first post's object, it names
	outstanding int // frames read and not yet answered on its connection, itself included
}

// reply is the scripted server's answer to one frame.
type reply struct {
	resp  wire.Response
	tear  bool          // close the connection instead of answering
	delay time.Duration // hold the answer (or the tear) this long first
}

// script answers every Hello, then hands each frame to handle and does what
// it says. Each connection reads frames ahead of answering them, so a
// client's pipelining shows in frame.outstanding.
type script struct {
	ln     net.Listener
	handle func(frame) reply
	stop   chan struct{}
	wg     sync.WaitGroup

	mu     sync.Mutex
	frames []frame
	conns  []net.Conn
}

func startScript(t *testing.T, handle func(frame) reply) *script {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &script{ln: ln, handle: handle, stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for n := 1; ; n++ {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns = append(s.conns, nc)
			s.mu.Unlock()
			s.wg.Add(1)
			go func(n int) {
				defer s.wg.Done()
				s.serve(nc, n)
			}(n)
		}
	}()
	t.Cleanup(func() {
		close(s.stop)
		ln.Close()
		s.mu.Lock()
		for _, nc := range s.conns {
			nc.Close()
		}
		s.mu.Unlock()
		s.wg.Wait()
	})
	return s
}

func (s *script) serve(nc net.Conn, n int) {
	defer nc.Close()
	dec := wire.NewStreamDecoder(bufio.NewReader(nc))
	enc := wire.NewStreamEncoder(nc)
	var req wire.Request
	if dec.DecodeRequest(&req) != nil || req.Type != wire.ReqHello ||
		enc.EncodeResponse(&wire.Response{N: 1, M: 1, Costs: []float64{1}}) != nil {
		return
	}
	var answered atomic.Int64
	// Sized for the longest batch a test sends, so the reader never waits
	// on the answering loop.
	pending := make(chan frame, 64)
	go func() {
		defer close(pending)
		for read := int64(1); dec.DecodeRequest(&req) == nil; read++ {
			f := frame{
				conn: n, seq: req.Seq, typ: req.Type, endRound: req.EndRound,
				outstanding: int(read - answered.Load()),
			}
			if len(req.Players) > 0 {
				f.tag = req.Players[0]
			} else if len(req.Posts) > 0 {
				f.tag = req.Posts[0].Object
			}
			s.mu.Lock()
			s.frames = append(s.frames, f)
			s.mu.Unlock()
			pending <- f
		}
	}()
	for f := range pending {
		r := s.handle(f)
		select {
		case <-time.After(r.delay):
		case <-s.stop:
			return
		}
		// Counted before the write: the client may send its next frame as
		// soon as the answer lands.
		answered.Add(1)
		if r.tear || enc.EncodeResponse(&r.resp) != nil {
			nc.Close() // the reader's decode fails and closes pending
			for range pending {
			}
			return
		}
	}
}

func (s *script) seen() []frame {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]frame(nil), s.frames...)
}

// dialScript opens a swarm-block session to s with the given window.
func dialScript(t *testing.T, s *script, window int, opt client.Options) *client.Conn {
	t.Helper()
	tr := client.NewTransport(context.Background(), s.ln.Addr().String(), opt, 0, window, client.TransportMetrics{})
	c := tr.NewConn("test", wire.Request{Swarm: true, Player: 0, PlayerTo: 1, Token: "tok"}, 1)
	if _, err := c.Dial(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// dones returns n Done frames, frame i naming player i.
func dones(n int) []wire.Request {
	reqs := make([]wire.Request, n)
	for i := range reqs {
		reqs[i] = wire.Request{Type: wire.ReqDone, Players: []int{i}}
	}
	return reqs
}

// echo answers each frame with its tag as the count.
func echo(f frame) wire.Response { return wire.Response{Count: f.tag} }

func fastRetries() client.Options {
	return client.Options{Retries: 4, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond}
}

// TestConnWindowBoundsOutstanding pins the pipelining window: frames go out
// without waiting for answers, but never more than the window at once, and
// the answers land positionally.
func TestConnWindowBoundsOutstanding(t *testing.T) {
	const window, n = 4, 12
	s := startScript(t, func(f frame) reply {
		return reply{resp: echo(f), delay: 5 * time.Millisecond}
	})
	c := dialScript(t, s, window, fastRetries())
	reqs, resps := dones(n), make([]wire.Response, n)
	if err := c.Exchange(reqs, resps); err != nil {
		t.Fatal(err)
	}
	most := 0
	for _, f := range s.seen() {
		most = max(most, f.outstanding)
	}
	if most != window {
		t.Errorf("at most %d frames outstanding, want the window %d", most, window)
	}
	for i := range resps {
		if resps[i].Count != i {
			t.Errorf("answer %d holds %d: answers out of place", i, resps[i].Count)
		}
	}
}

// TestConnResendsUnackedTail drops the connection mid-batch: the resumed
// session gets the unacked tail, from the oldest unanswered frame, under
// the sequence numbers it first carried.
func TestConnResendsUnackedTail(t *testing.T) {
	const n, tearAt = 8, 3
	s := startScript(t, func(f frame) reply {
		if f.conn == 1 && f.tag == tearAt {
			// Held first, so the client has read every earlier answer and
			// the server every frame sent: the close then loses no answer.
			return reply{tear: true, delay: 20 * time.Millisecond}
		}
		return reply{resp: echo(f)}
	})
	c := dialScript(t, s, 4, fastRetries())
	reqs, resps := dones(n), make([]wire.Response, n)
	if err := c.Exchange(reqs, resps); err != nil {
		t.Fatal(err)
	}
	base := reqs[0].Seq
	var resent []frame
	for _, f := range s.seen() {
		if f.seq != base+uint64(f.tag) {
			t.Errorf("frame %d travelled as seq %d on connection %d, first sent as %d", f.tag, f.seq, f.conn, base+uint64(f.tag))
		}
		if f.conn == 2 {
			resent = append(resent, f)
		}
	}
	if len(resent) != n-tearAt {
		t.Fatalf("resent %d frames, want the %d from the torn one on", len(resent), n-tearAt)
	}
	for i, f := range resent {
		if f.tag != tearAt+i {
			t.Errorf("resend %d is frame %d, want %d", i, f.tag, tearAt+i)
		}
	}
	for i := range resps {
		if resps[i].Count != i {
			t.Errorf("answer %d holds %d", i, resps[i].Count)
		}
	}
}

// TestConnArrivalBatchResendsWhole drops the connection at a batch's
// arrival, after its posts were answered: the resumed session gets the
// whole batch again, under its first sequence numbers, since a restart
// before the round commits discards acknowledged posts. The arrival is a
// bare stamp after the posts, or a post batch fused with it.
func TestConnArrivalBatchResendsWhole(t *testing.T) {
	post := func(obj int) wire.Request {
		return wire.Request{Type: wire.ReqPostBatch, Posts: []wire.PostMsg{{Object: obj, Value: 1}}}
	}
	fused := post(2)
	fused.EndRound = true
	for _, tc := range []struct {
		name string
		reqs []wire.Request
	}{
		{"stamp", []wire.Request{post(0), post(1), post(2), {Type: wire.ReqEpoch, Epoch: 1}}},
		{"fused", []wire.Request{post(0), post(1), fused}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := startScript(t, func(f frame) reply {
				arrival := f.typ == wire.ReqEpoch || f.endRound
				return reply{resp: wire.Response{Round: 1}, tear: f.conn == 1 && arrival}
			})
			c := dialScript(t, s, 4, fastRetries())
			if err := c.Exchange(tc.reqs, make([]wire.Response, len(tc.reqs))); err != nil {
				t.Fatal(err)
			}
			var resent []uint64
			for _, f := range s.seen() {
				if f.conn == 2 {
					resent = append(resent, f.seq)
				}
			}
			if len(resent) != len(tc.reqs) {
				t.Fatalf("resent %d frames, want the whole batch of %d", len(resent), len(tc.reqs))
			}
			for i, seq := range resent {
				if seq != tc.reqs[i].Seq {
					t.Errorf("resend %d carried seq %d, want %d", i, seq, tc.reqs[i].Seq)
				}
			}
		})
	}
}

// TestConnDeadlines pins which deadline each answer waits under: an
// arrival's (a bare stamp, or a fused post batch) under BarrierTimeout,
// every other answer under CallTimeout. A held answer fails the call (no
// retries) within about its own deadline; an answer later than the other
// deadline still lands.
func TestConnDeadlines(t *testing.T) {
	const short, long = 100 * time.Millisecond, 5 * time.Second
	stamp := wire.Request{Type: wire.ReqEpoch, Epoch: 1}
	fused := wire.Request{Type: wire.ReqPostBatch, EndRound: true, Epoch: 1}
	done := wire.Request{Type: wire.ReqDone, Players: []int{0}}
	for _, tc := range []struct {
		name          string
		call, barrier time.Duration
		req           wire.Request
		delay         time.Duration
		wantErr       bool
	}{
		{"stamp held past BarrierTimeout", long, short, stamp, long, true},
		{"fused arrival held past BarrierTimeout", long, short, fused, long, true},
		{"stamp answered past CallTimeout", short, long, stamp, 3 * short, false},
		{"call held past CallTimeout", short, long, done, long, true},
		{"call answered past BarrierTimeout", long, short, done, 3 * short, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := startScript(t, func(f frame) reply { return reply{delay: tc.delay} })
			c := dialScript(t, s, 1, client.Options{Retries: -1, CallTimeout: tc.call, BarrierTimeout: tc.barrier})
			start := time.Now()
			_, err := c.Call(tc.req)
			elapsed := time.Since(start)
			if tc.wantErr {
				if err == nil {
					t.Fatal("held answer did not time out")
				}
				if elapsed > 2*time.Second {
					t.Fatalf("timed out after %v, want about %v", elapsed, short)
				}
			} else if err != nil {
				t.Fatalf("answer after %v failed: %v", tc.delay, err)
			}
		})
	}
}
