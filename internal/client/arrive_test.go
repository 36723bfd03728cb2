package client_test

import (
	"bufio"
	"net"
	"testing"

	"repro/internal/client"
	"repro/internal/wire"
)

// TestArrivalRestampsBelowTarget pins the client's one arrival path, shared
// by PostBatch(…, true) and Barrier: it stamps one past the client's round,
// and an answer below the stamp (a dedup replay recorded before the seal)
// makes it re-send the bare stamp under a fresh sequence number instead of
// returning a round that has not committed.
func TestArrivalRestampsBelowTarget(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// The scripted server answers Hello at round 2, then answers arrivals
	// from this script in order.
	answers := []int{1, 3, 4}
	got := make(chan wire.Request, len(answers))
	done := make(chan struct{})
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		dec := wire.NewStreamDecoder(bufio.NewReader(conn))
		enc := wire.NewStreamEncoder(conn)
		var req wire.Request
		if dec.DecodeRequest(&req) != nil ||
			enc.EncodeResponse(&wire.Response{N: 1, M: 1, Costs: []float64{1}, Round: 2}) != nil {
			return
		}
		for _, round := range answers {
			if dec.DecodeRequest(&req) != nil {
				return
			}
			got <- req
			if enc.EncodeResponse(&wire.Response{Round: round}) != nil {
				return
			}
		}
	}()

	c, err := client.DialOptions(ln.Addr().String(), 0, "tok", client.Options{Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if r, err := c.PostBatch([]client.BatchPost{{Object: 0, Value: 1}}, true); err != nil || r != 3 {
		t.Fatalf("PostBatch: round %d, err %v; want 3", r, err)
	}
	if r, err := c.Barrier(); err != nil || r != 4 {
		t.Fatalf("Barrier: round %d, err %v; want 4", r, err)
	}
	fused, restamp, bare := <-got, <-got, <-got
	if fused.Type != wire.ReqPostBatch || !fused.EndRound || fused.Epoch != 3 || len(fused.Posts) != 1 {
		t.Errorf("fused arrival = %+v, want a post batch ending the round at stamp 3", fused)
	}
	if restamp.Type != wire.ReqEpoch || restamp.Epoch != 3 || restamp.Seq <= fused.Seq {
		t.Errorf("re-stamp = %+v, want a bare stamp 3 under a fresh sequence number after %d", restamp, fused.Seq)
	}
	if bare.Type != wire.ReqEpoch || bare.Epoch != 4 {
		t.Errorf("barrier = %+v, want a bare stamp 4", bare)
	}
}
