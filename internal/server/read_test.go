package server

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/billboard"
	"repro/internal/wire"
)

// TestVoteBatchAllocationsFlat pins the vote-batch read: its answer is read
// from the boards' vote views into one slice, so a read naming 4096
// players allocates as many objects as one naming 64, on one lane and on
// two.
func TestVoteBatchAllocationsFlat(t *testing.T) {
	const players = 4096
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			cfg := rigConfig(t, ModeSync, players)
			cfg.Shards = shards
			r := newFrameRig(t, cfg)
			defer r.s.Close()
			sess := r.joinSwarm(0, players)
			posts := make([]wire.PostMsg, players)
			for p := range posts {
				posts[p] = wire.PostMsg{Player: p, Object: p % 32, Value: 1, Positive: true}
			}
			r.send(sess, wire.Request{Type: wire.ReqPostBatch, Posts: posts, EndRound: true, Epoch: 1})

			all := make([]int, players)
			for p := range all {
				all[p] = p
			}
			read := func(names []int) float64 {
				req := &wire.Request{Type: wire.ReqVoteBatch, Players: names}
				return testing.AllocsPerRun(20, func() {
					r.s.mu.Lock()
					resp := r.s.voteBatchLocked(req)
					r.s.mu.Unlock()
					if resp.Err != "" || len(resp.Votes) != len(names) {
						t.Fatalf("vote batch of %d players answered %d votes (%q)", len(names), len(resp.Votes), resp.Err)
					}
				})
			}
			if small, large := read(all[:64]), read(all); small != large {
				t.Errorf("a vote batch allocated %v objects for 64 players and %v for %d", small, large, players)
			}
		})
	}
}

// TestPostBatchesShareOneDecoder sends two post batches and then the
// arrival on one connection, whose decoder reuses the first batch's entry
// array for the second: the committed board must hold both batches' posts,
// on one lane and on two.
func TestPostBatchesShareOneDecoder(t *testing.T) {
	const players = 4
	var long, short []wire.PostMsg
	for i := range 24 {
		long = append(long, wire.PostMsg{Player: i % players, Object: i, Value: float64(i), Positive: i%5 == 0})
	}
	for i := range 3 {
		short = append(short, wire.PostMsg{Player: i, Object: 30 - i, Value: 0.5, Positive: true})
	}

	want, err := billboard.New(billboard.Config{Players: players, Objects: 32})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range append(append([]wire.PostMsg(nil), long...), short...) {
		if err := want.Post(billboard.Post{Player: p.Player, Object: p.Object, Value: p.Value, Positive: p.Positive}); err != nil {
			t.Fatal(err)
		}
	}
	want.EndRound()

	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			cfg := rigConfig(t, ModeSync, players)
			cfg.Shards = shards
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			addr, err := s.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			enc, dec := wire.NewStreamEncoder(conn), wire.NewStreamDecoder(bufio.NewReader(conn))
			for i, req := range []wire.Request{
				{Type: wire.ReqHello, Version: wire.Version, Session: 1, Swarm: true, Player: 0, PlayerTo: players, Token: rigSwarmToken},
				{Type: wire.ReqPostBatch, Session: 1, Seq: 1, Posts: long},
				{Type: wire.ReqPostBatch, Session: 1, Seq: 2, Posts: short},
				{Type: wire.ReqEpoch, Session: 1, Seq: 3, Epoch: 1},
			} {
				if err := enc.EncodeRequest(&req); err != nil {
					t.Fatal(err)
				}
				var resp wire.Response
				if err := dec.DecodeResponse(&resp); err != nil {
					t.Fatal(err)
				}
				if resp.Err != "" {
					t.Fatalf("frame %d (%v) answered %q", i, req.Type, resp.Err)
				}
			}
			if got := s.Digest(); !bytes.Equal(got, want.Digest()) {
				t.Fatalf("committed board:\n%s\n--- want both batches ---\n%s", got, want.Digest())
			}
		})
	}
}

// TestMultiLaneReadsWaitForEveryLane pins the wait rule of the reads that
// span lanes: while any lane is down such a read waits, reading no lane, and
// once every lane is up it answers from all of them; a server closed while
// it waits answers errServerClosed, never a partial merge. A lane is taken
// down by hand, as KillShard does, so the server needs no store.
func TestMultiLaneReadsWaitForEveryLane(t *testing.T) {
	reads := map[string]func(s *Server) wire.Response{
		"window":        func(s *Server) wire.Response { return s.windowLocked(0, 1) },
		"voted-objects": func(s *Server) wire.Response { return s.votedObjectsLocked() },
		"vote-batch":    func(s *Server) wire.Response { return s.voteBatchLocked(&wire.Request{Players: []int{0, 1}}) },
	}
	for name, read := range reads {
		t.Run(name, func(t *testing.T) {
			cfg := rigConfig(t, ModeSync, 2)
			cfg.Shards = 2
			r := newFrameRig(t, cfg)
			// One vote on each lane.
			var objs [2]int
			for k := range objs {
				for wire.Shard(objs[k], 2) != k {
					objs[k]++
				}
			}
			sess := r.joinSwarm(0, 2)
			r.send(sess, wire.Request{Type: wire.ReqPostBatch, EndRound: true, Epoch: 1, Posts: []wire.PostMsg{
				{Player: 0, Object: objs[0], Value: 1, Positive: true},
				{Player: 1, Object: objs[1], Value: 1, Positive: true},
			}})
			setDown := func(down bool) {
				r.s.mu.Lock()
				r.s.lanes[1].down = down
				r.s.cond.Broadcast()
				r.s.mu.Unlock()
			}
			start := func() <-chan wire.Response {
				out := make(chan wire.Response, 1)
				go func() {
					r.s.mu.Lock()
					defer r.s.mu.Unlock()
					out <- read(r.s)
				}()
				select {
				case resp := <-out:
					t.Fatalf("answered %+v while lane 1 was down", resp)
				case <-time.After(20 * time.Millisecond):
				}
				return out
			}
			answer := func(out <-chan wire.Response) wire.Response {
				select {
				case resp := <-out:
					return resp
				case <-time.After(5 * time.Second):
					t.Fatal("read still waiting")
					return wire.Response{}
				}
			}

			setDown(true)
			out := start()
			setDown(false)
			resp := answer(out)
			if resp.Err != "" || len(resp.Votes)+len(resp.Objects)+len(resp.Counts) != 2 {
				t.Fatalf("with every lane up the read answered %+v, want both lanes' votes", resp)
			}

			setDown(true)
			out = start()
			if err := r.s.Close(); err != nil {
				t.Fatal(err)
			}
			if resp := answer(out); resp.Err != errServerClosed {
				t.Fatalf("after Close the read answered %+v, want %q", resp, errServerClosed)
			}
		})
	}
}
