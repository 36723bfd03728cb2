package server_test

import (
	"testing"

	"repro/internal/client"
	"repro/internal/server"
)

// TestPostBatchCommitsAtRoundEnd pins the protocol-v3 semantics: a PostBatch
// with EndRound set applies every post and then acts as the player's barrier,
// so the posts become visible exactly when a Post+Barrier sequence would have
// made them visible.
func TestPostBatchCommitsAtRoundEnd(t *testing.T) {
	addr, _, _ := startServer(t, 2, 1)
	c0, err := client.Dial(addr, 0, "tok")
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	c1, err := client.Dial(addr, 1, "tok")
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	batch := []client.BatchPost{
		{Object: 3, Value: 0.5, Positive: true},
		{Object: 4, Value: 0.25},
	}
	done := make(chan error, 1)
	go func() {
		_, err := c0.PostBatch(batch, true)
		done <- err
	}()
	if _, err := c1.Barrier(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	votes := client.NewCached(c1).Votes(0)
	if err := c1.Err(); err != nil {
		t.Fatal(err)
	}
	if len(votes) != 1 || votes[0].Object != 3 || votes[0].Round != 0 {
		t.Fatalf("votes after batch = %+v, want one round-0 vote for object 3", votes)
	}
	counts := window(client.NewCached(c1), 0, 1)
	if err := c1.Err(); err != nil {
		t.Fatal(err)
	}
	if counts[3] != 1 {
		t.Fatalf("window counts = %v, want object 3 counted once", counts)
	}
}

// TestPostBatchIsOneFramePerRound asserts the headline v3 property: a player
// posting k objects in a round costs O(1) client→server frames — one
// PostBatch frame carrying both the posts and the player's arrival —
// independent of k, in both modes.
func TestPostBatchIsOneFramePerRound(t *testing.T) {
	for _, mode := range []server.Mode{server.ModeSync, server.ModeEpoch} {
		t.Run(mode.String(), func(t *testing.T) {
			addr, _, srv := startServerMode(t, mode, 2, 1, 0, 0)
			c0, err := client.Dial(addr, 0, "tok")
			if err != nil {
				t.Fatal(err)
			}
			defer c0.Close()
			c1, err := client.Dial(addr, 1, "tok")
			if err != nil {
				t.Fatal(err)
			}
			defer c1.Close()

			for _, k := range []int{1, 4, 16} {
				batch := make([]client.BatchPost, k)
				for i := range batch {
					batch[i] = client.BatchPost{Object: i % 8, Value: float64(i)}
				}
				before := srv.RequestsServed()
				done := make(chan error, 1)
				go func() {
					_, err := c0.PostBatch(batch, true)
					done <- err
				}()
				if _, err := c1.Barrier(); err != nil {
					t.Fatal(err)
				}
				if err := <-done; err != nil {
					t.Fatal(err)
				}
				// Exactly one frame per player for the whole round, regardless
				// of k.
				if got := srv.RequestsServed() - before; got != 2 {
					t.Fatalf("k=%d: round cost %d frames, want 2 (one per player)", k, got)
				}
			}
		})
	}
}

// TestPostBatchValidation ensures a bad post inside a batch surfaces as an
// error and does not run the barrier.
func TestPostBatchValidation(t *testing.T) {
	addr, _, srv := startServer(t, 1, 1)
	c, err := client.Dial(addr, 0, "tok")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.PostBatch([]client.BatchPost{{Object: -1}}, true); err == nil {
		t.Fatal("out-of-range object in batch accepted")
	}
	if srv.Round() != 0 {
		t.Fatalf("failed batch advanced the round to %d", srv.Round())
	}
	// The connection stays usable and a clean batch still works.
	if _, err := c.PostBatch([]client.BatchPost{{Object: 1, Value: 1}}, true); err != nil {
		t.Fatal(err)
	}
	if srv.Round() != 1 {
		t.Fatalf("round = %d after clean batch, want 1", srv.Round())
	}
}
