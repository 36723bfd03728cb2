package server_test

import (
	"bufio"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/object"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/wire"
)

// TestCloseDuringCommitNoPartialSeal hammers an epoch-mode server with
// round commits (two posts per round) and concurrent window reads while
// Close lands mid-run. The seal runs under the server lock, so a reader
// must observe each round's posts all-or-nothing: every successful window
// read returns an even event total and complete per-round pairs — never a
// half-sealed board. Run under -race this also audits the seal against
// Close.
func TestCloseDuringCommitNoPartialSeal(t *testing.T) {
	u, err := object.NewPlanted(object.Planted{M: 4096, Good: 1}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Universe: u, Tokens: []string{"tok", "tok"}, Alpha: 1, Beta: u.Beta(),
		Mode: server.ModeEpoch,
		// Every positive post must commit a vote event for the pairing
		// invariant, so lift the per-player vote budget out of the way.
		VotesPerPlayer: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// The driver: player 0 commits rounds as fast as the server seals them.
	// Posts go in pairs on distinct objects, so a torn seal would show as
	// an unpaired object.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := client.Dial(addr, 0, "tok")
		if err != nil {
			return // the server may already be closing
		}
		defer c.Close()
		for r := 0; ; r++ {
			batch := []client.BatchPost{
				{Object: 2 * r, Value: 1, Positive: true},
				{Object: 2*r + 1, Value: 1, Positive: true},
			}
			if _, err := c.PostBatch(batch, true); err != nil {
				return // server closed underneath us: expected
			}
		}
	}()

	// The reader: player 1 registers and departs with Done (so it never
	// holds rounds open — an arrival would wait for its round, blocking the
	// reads behind it), then issues window reads.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := wire.NewStreamEncoder(conn)
	dec := wire.NewStreamDecoder(bufio.NewReader(conn))
	send := func(req wire.Request) (*wire.Response, bool) {
		if err := enc.EncodeRequest(&req); err != nil {
			return nil, false
		}
		var resp wire.Response
		if err := dec.DecodeResponse(&resp); err != nil {
			return nil, false
		}
		return &resp, true
	}
	hello, ok := send(wire.Request{
		Type: wire.ReqHello, Player: 1, Token: "tok", Version: wire.Version,
		Session: 99, Seq: 1,
	})
	if !ok || hello.Err != "" {
		t.Fatalf("reader hello: %+v", hello)
	}
	seq := uint64(0)
	seq++
	if resp, ok := send(wire.Request{Type: wire.ReqDone, Players: []int{1}, Session: 99, Seq: seq}); !ok || resp.Err != "" {
		t.Fatalf("reader done: %+v", resp)
	}

	reads := 0
	closed := make(chan struct{})
	// firstRead closes once the reader has a successful window read (or has
	// stopped), so Close cannot land before the reader's first read returns.
	firstRead := make(chan struct{})
	var readOnce sync.Once
	markRead := func() { readOnce.Do(func() { close(firstRead) }) }
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Let some rounds commit, then land Close in the middle of the
		// commit storm.
		for srv.Round() < 40 {
			time.Sleep(50 * time.Microsecond)
		}
		<-firstRead
		srv.Close()
		close(closed)
	}()
	for {
		seq++
		resp, ok := send(wire.Request{Type: wire.ReqWindow, Last: 1 << 20, Session: 99, Seq: seq})
		if !ok || resp.Err != "" {
			break // connection torn down by Close: expected
		}
		total := 0
		for obj, n := range resp.Counts {
			total += n
			// The pair partner of every counted object must be equally
			// visible: posts of one round commit atomically.
			partner := obj ^ 1
			if resp.Counts[partner] != n {
				t.Errorf("read %d (round %d): object %d has %d events, partner %d has %d — torn round visible",
					reads, resp.Round, obj, n, partner, resp.Counts[partner])
			}
		}
		if total%2 != 0 {
			t.Errorf("read %d (round %d): odd event total %d — half a round visible", reads, resp.Round, total)
		}
		reads++
		markRead()
	}
	markRead()
	<-closed
	wg.Wait()
	if reads == 0 {
		t.Fatal("no successful window read before close: test raced itself")
	}
}
