package swarm

// Regression test for the reconnect double-delivery of an arrival's answer.
// The transport resends the unacked frame tail after a reconnect under the
// same sequence numbers, and the server answers an already-executed arrival
// again. An answer below the arrival's stamp is a replay recorded before the
// seal, not the seal itself: runRound must re-stamp instead of adopting the
// stale round and re-driving rounds the server has long sealed.

import (
	"bufio"
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/wire"
)

// scriptedServer speaks just enough of the wire protocol for a group's
// primary connection: it answers Hello unconditionally and routes every
// in-band frame through handle. Returning tear=true severs the connection
// without answering — the reconnect trigger.
type scriptedServer struct {
	ln     net.Listener
	handle func(connNum int, req *wire.Request) (resp wire.Response, tear bool)
	wg     sync.WaitGroup

	mu    sync.Mutex
	conns []net.Conn
}

func startScriptedServer(t *testing.T, handle func(int, *wire.Request) (wire.Response, bool)) *scriptedServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &scriptedServer{ln: ln, handle: handle}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for n := 1; ; n++ {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns = append(s.conns, c)
			s.mu.Unlock()
			s.wg.Add(1)
			go func(c net.Conn, n int) {
				defer s.wg.Done()
				defer c.Close()
				dec := wire.NewStreamDecoder(bufio.NewReader(c))
				enc := wire.NewStreamEncoder(c)
				var hello wire.Request
				if dec.DecodeRequest(&hello) != nil || hello.Type != wire.ReqHello {
					return
				}
				if enc.EncodeResponse(&wire.Response{}) != nil {
					return
				}
				for {
					var req wire.Request
					if dec.DecodeRequest(&req) != nil {
						return
					}
					resp, tear := s.handle(n, &req)
					if tear {
						return
					}
					if enc.EncodeResponse(&resp) != nil {
						return
					}
				}
			}(c, n)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		s.mu.Lock()
		for _, c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		s.wg.Wait()
	})
	return s
}

// newTestGroup wires a single-member group to addr with fast retry knobs —
// the minimum state runRound's arrival tail touches.
func newTestGroup(addr string) *group {
	t := client.NewTransport(context.Background(), addr, client.Options{
		Retries: 8, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond,
		CallTimeout: 5 * time.Second, BarrierTimeout: 5 * time.Second,
	}, 0, 4, client.TransportMetrics{})
	g := &group{d: &driver{cfg: Config{Chunk: 4096}}, idx: 0, from: 0, to: 1, members: []int{0}}
	g.prim = t.NewConn("swarm: group 0", wire.Request{Swarm: true, Player: 0, PlayerTo: 1, Token: "tok"}, 1)
	return g
}

// TestStaleBarrierReplayDoesNotRegressRound scripts the double-delivery.
// Arrival 1 answers round 2 (the server ran ahead of this group). Arrival 2,
// stamped 3, is executed server-side but the connection tears before the
// answer lands; the resumed session replays it with a round below the stamp.
// The group must resend the bare stamp under a fresh sequence number, and
// its round must never regress: every arrival of the second round carries
// stamp 3.
func TestStaleBarrierReplayDoesNotRegressRound(t *testing.T) {
	type frame struct {
		seq   uint64
		epoch int
	}
	var (
		mu     sync.Mutex
		frames []frame
	)
	srv := startScriptedServer(t, func(connNum int, req *wire.Request) (wire.Response, bool) {
		mu.Lock()
		defer mu.Unlock()
		if req.Type != wire.ReqEpoch {
			return wire.Response{}, false
		}
		frames = append(frames, frame{req.Seq, req.Epoch})
		switch len(frames) {
		case 1:
			return wire.Response{Round: 2}, false
		case 2:
			// Executed server-side, response lost: tear without answering.
			return wire.Response{}, true
		case 3:
			// The resumed session's replay, recorded before the seal: below
			// the stamp, and below the round the group has already seen.
			return wire.Response{Round: 1}, false
		default:
			return wire.Response{Round: 3}, false
		}
	})

	g := newTestGroup(srv.ln.Addr().String())
	if err := g.runRound(); err != nil {
		t.Fatal(err)
	}
	if g.round != 2 {
		t.Fatalf("after arrival 1: group round = %d, want 2", g.round)
	}
	if err := g.runRound(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(frames) != 4 {
		t.Fatalf("arrival frames = %+v, want stamp, torn stamp, its resend, one re-stamp", frames)
	}
	if frames[0].epoch != 1 {
		t.Errorf("first arrival stamped %d, want 1", frames[0].epoch)
	}
	torn, resent, restamp := frames[1], frames[2], frames[3]
	if resent.seq != torn.seq {
		t.Errorf("torn arrival resent as seq %d, was seq %d — not the unacked tail", resent.seq, torn.seq)
	}
	if restamp.seq <= resent.seq {
		t.Errorf("re-stamp reused seq %d; a fresh arrival needs a fresh sequence number", restamp.seq)
	}
	for _, f := range frames[1:] {
		if f.epoch != 3 {
			t.Errorf("second-round arrival stamped %d, want 3: the stale answer moved the group's round", f.epoch)
		}
	}
	if g.round != 3 {
		t.Errorf("group round = %d after the seal, want 3", g.round)
	}
}

// TestStaleEpochReplayRepolls pins the same rule on a healthy connection:
// an answer below the stamp is not the seal of the stamped round, so the
// group re-sends the bare stamp, each time under a fresh sequence number,
// until the answer reaches it.
func TestStaleEpochReplayRepolls(t *testing.T) {
	type frame struct {
		seq   uint64
		epoch int
	}
	var (
		mu     sync.Mutex
		frames []frame
	)
	srv := startScriptedServer(t, func(connNum int, req *wire.Request) (wire.Response, bool) {
		mu.Lock()
		defer mu.Unlock()
		if req.Type != wire.ReqEpoch {
			return wire.Response{}, false
		}
		frames = append(frames, frame{req.Seq, req.Epoch})
		if len(frames) < 3 {
			// Stale answers below the stamp: re-stamp.
			return wire.Response{Round: 0}, false
		}
		return wire.Response{Round: 1}, false
	})

	g := newTestGroup(srv.ln.Addr().String())
	if err := g.runRound(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(frames) != 3 {
		t.Fatalf("arrival took %d frames, want 3 (stale answers must re-stamp)", len(frames))
	}
	for i, f := range frames {
		if f.epoch != 1 {
			t.Errorf("arrival %d stamped %d, want 1", i, f.epoch)
		}
		if i > 0 && f.seq <= frames[i-1].seq {
			t.Errorf("re-stamp %d reused seq %d; a fresh arrival needs a fresh sequence number", i, f.seq)
		}
	}
	if g.round != 1 {
		t.Errorf("group round = %d after the seal, want 1", g.round)
	}
}
