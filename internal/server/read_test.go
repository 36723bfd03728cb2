package server

import (
	"bufio"
	"bytes"
	"net"
	"testing"

	"repro/internal/billboard"
	"repro/internal/wire"
)

// TestVoteBatchAllocationsFlat pins the vote-batch read: its answer is read
// from the board's vote views into one slice, so a read naming 4096
// players allocates as many objects as one naming 64.
func TestVoteBatchAllocationsFlat(t *testing.T) {
	const players = 4096
	t.Run("shards-1", func(t *testing.T) {
		r := newFrameRig(t, rigConfig(t, ModeSync, players))
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

// TestPostBatchesShareOneDecoder sends two post batches and then the
// arrival on one connection, whose decoder reuses the first batch's entry
// array for the second: the committed board must hold both batches' posts.
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

	t.Run("shards-1", func(t *testing.T) {
		s, err := New(rigConfig(t, ModeSync, players))
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
