package server_test

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/journal"
	"repro/internal/object"
	"repro/internal/rng"
	"repro/internal/server"
)

// startEpochServer mirrors startServer but runs the server in epoch mode.
func startEpochServer(t *testing.T, players, good int) (addr string, srv *server.Server) {
	t.Helper()
	u, err := object.NewPlanted(object.Planted{M: 32, Good: good}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	tokens := make([]string, players)
	for i := range tokens {
		tokens[i] = "tok"
	}
	srv, err = server.New(server.Config{
		Universe: u, Tokens: tokens, Alpha: 1, Beta: u.Beta(),
		Mode: server.ModeEpoch,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err = srv.Start("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr, srv
}

// TestEpochConfigValidation pins which mode configurations construct: both
// modes do, with or without a round deadline (the deadline is the one
// liveness lever in either mode); an unknown mode does not.
func TestEpochConfigValidation(t *testing.T) {
	u, err := object.NewPlanted(object.Planted{M: 8, Good: 1}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	tok := []string{"a"}
	cases := []struct {
		name  string
		cfg   server.Config
		valid bool
	}{
		{"unknown mode", server.Config{Universe: u, Tokens: tok, Mode: server.Mode(9)}, false},
		{"negative mode", server.Config{Universe: u, Tokens: tok, Mode: server.Mode(-1)}, false},
		{"sync mode", server.Config{Universe: u, Tokens: tok, Mode: server.ModeSync}, true},
		{"epoch mode", server.Config{Universe: u, Tokens: tok, Mode: server.ModeEpoch}, true},
		{"barrier deadline in sync mode", server.Config{
			Universe: u, Tokens: tok, Mode: server.ModeSync, BarrierDeadline: time.Second}, true},
		{"barrier deadline in epoch mode", server.Config{
			Universe: u, Tokens: tok, Mode: server.ModeEpoch, BarrierDeadline: time.Second}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := server.New(tc.cfg)
			if tc.valid {
				if err != nil {
					t.Fatalf("rejected: %v", err)
				}
				srv.Close()
				return
			}
			if err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

// TestEpochStampClosure pins the stamp seal rule with no deadline: an epoch
// stays open until every active player has stamped past it, and an arrival
// waits server-side until then.
func TestEpochStampClosure(t *testing.T) {
	addr, srv := startEpochServer(t, 2, 1)
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

	if err := c0.Post(5, 1, true); err != nil {
		t.Fatal(err)
	}
	// c0 ends its epoch; the epoch must stay open (c1 has not stamped), so
	// c0's arrival must wait.
	done := make(chan int, 1)
	go func() {
		round, err := c0.Barrier()
		if err != nil {
			done <- -1
			return
		}
		done <- round
	}()
	select {
	case r := <-done:
		t.Fatalf("epoch sealed early with round %d", r)
	case <-time.After(50 * time.Millisecond):
	}
	if srv.Round() != 0 {
		t.Fatalf("epoch sealed with one stamp: round %d", srv.Round())
	}
	// c1 stamps: both players are now past epoch 0 and it seals for everyone.
	if r, err := c1.Barrier(); err != nil || r != 1 {
		t.Fatalf("c1 pacing: round %d, err %v", r, err)
	}
	if r := <-done; r != 1 {
		t.Fatalf("c0 pacing returned round %d, want 1", r)
	}
	if c1.VoteCount(5) != 1 {
		t.Fatal("post not visible after the epoch sealed")
	}
}

// TestEpochPostBatchBindsAndSeals drives several epochs through the batched
// client path on a single-player universe: each PostBatch(endRound) carries
// the posts and the stamp in one frame and the epoch self-seals.
func TestEpochPostBatchBindsAndSeals(t *testing.T) {
	addr, srv := startEpochServer(t, 1, 1)
	c, err := client.Dial(addr, 0, "tok")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Epoch 0 carries the player's single positive vote (FirstPositive caps
	// one vote per player); later epochs carry negative reports, which are
	// uncapped and so prove every epoch's batch committed.
	for r := 0; r < 3; r++ {
		batch := []client.BatchPost{{Object: r, Value: 1, Positive: r == 0}}
		round, err := c.PostBatch(batch, true)
		if err != nil {
			t.Fatal(err)
		}
		if round != r+1 {
			t.Fatalf("epoch %d sealed into round %d", r, round)
		}
	}
	if srv.Round() != 3 {
		t.Fatalf("server round = %d, want 3", srv.Round())
	}
	if c.VoteCount(0) != 1 {
		t.Fatal("epoch 0 vote not committed")
	}
	for r := 1; r < 3; r++ {
		if c.NegativeCount(r) != 1 {
			t.Fatalf("epoch %d negative report not committed", r)
		}
	}
	// The vote carries the epoch it bound to.
	votes := c.Votes(0)
	if len(votes) != 1 || votes[0].Round != 0 {
		t.Fatalf("votes = %+v, want one vote bound to epoch 0", votes)
	}
}

// TestEpochSlidingWindow pins the protocol v8 Last query: the most recent
// Last closed epochs, anchored at the answering round.
func TestEpochSlidingWindow(t *testing.T) {
	const players = 4
	addr, _ := startEpochServer(t, players, 1)
	var clients [players]*client.Client
	for p := range clients {
		c, err := client.Dial(addr, p, "tok")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[p] = c
	}
	// Player p casts its single positive vote on object p during epoch p, so
	// each epoch holds exactly one vote event on a distinct object.
	var wg sync.WaitGroup
	for p, c := range clients {
		wg.Add(1)
		go func(p int, c *client.Client) {
			defer wg.Done()
			for r := 0; r < players; r++ {
				var batch []client.BatchPost
				if r == p {
					batch = []client.BatchPost{{Object: p, Value: 1, Positive: true}}
				}
				if _, err := c.PostBatch(batch, true); err != nil {
					t.Errorf("player %d epoch %d: %v", p, r, err)
					return
				}
			}
		}(p, c)
	}
	wg.Wait()
	c := clients[0]
	counts, anchor := c.CountVotesInLast(2)
	if anchor != players {
		t.Fatalf("anchor round = %d, want %d", anchor, players)
	}
	// [2, 4): the votes cast in epochs 2 and 3 only.
	if len(counts) != 2 || counts[2] != 1 || counts[3] != 1 {
		t.Fatalf("window counts = %v, want {2:1 3:1}", counts)
	}
	// A window wider than history clamps at round 0.
	counts, _ = c.CountVotesInLast(100)
	if len(counts) != players {
		t.Fatalf("clamped window counts = %v, want all %d epochs", counts, players)
	}
}

// TestEpochJournalMarkersAndRecovery pins that an epoch-mode journal
// recovers like a sync one: its round markers alone rebuild the exact
// committed state after a crash.
func TestEpochJournalMarkersAndRecovery(t *testing.T) {
	u, err := object.NewPlanted(object.Planted{M: 32, Good: 1}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := journal.OpenStore(dir, journal.SyncCommit)
	if err != nil {
		t.Fatal(err)
	}
	cfg := server.Config{
		Universe: u, Tokens: []string{"tok"}, Alpha: 1, Beta: u.Beta(),
		Mode: server.ModeEpoch, Persist: st,
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("")
	if err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(addr, 0, "tok")
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		if _, err := c.PostBatch([]client.BatchPost{{Object: r, Value: 1, Positive: true}}, true); err != nil {
			t.Fatal(err)
		}
	}
	want := srv.Digest()
	c.Close()
	srv.Close()
	st.Close()

	// Crash-recover from the same store.
	st2, err := journal.OpenStore(dir, journal.SyncCommit)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Persist = st2
	srv2, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	defer st2.Close()
	if srv2.Round() != 3 {
		t.Fatalf("recovered round = %d, want 3", srv2.Round())
	}
	if !bytes.Equal(srv2.Digest(), want) {
		t.Fatalf("recovered digest differs:\n%x\n%x", srv2.Digest(), want)
	}
}

// epochWorkload drives the identical two-player posting script against a
// server in the given mode and returns the final committed digest.
func epochWorkload(t *testing.T, mode server.Mode) []byte {
	t.Helper()
	u, err := object.NewPlanted(object.Planted{M: 32, Good: 1}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Universe: u, Tokens: []string{"tok", "tok"}, Alpha: 1, Beta: u.Beta(),
		Mode: mode,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr, err := srv.Start("")
	if err != nil {
		t.Fatal(err)
	}
	var clients [2]*client.Client
	for p := range clients {
		c, err := client.Dial(addr, p, "tok")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[p] = c
	}
	const rounds = 5
	var wg sync.WaitGroup
	for p, c := range clients {
		wg.Add(1)
		go func(p int, c *client.Client) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Deterministic per-player script: distinct objects, mixed
				// positive/negative, identical across modes.
				batch := []client.BatchPost{
					{Object: (p*7 + r) % 32, Value: float64(r + 1), Positive: r%2 == 0},
					{Object: (p*11 + 2*r) % 32, Value: 1, Positive: true},
				}
				if _, err := c.PostBatch(batch, true); err != nil {
					t.Errorf("player %d round %d: %v", p, r, err)
					return
				}
			}
		}(p, c)
	}
	wg.Wait()
	if got := srv.Round(); got != rounds {
		t.Fatalf("mode %v: server round = %d, want %d", mode, got, rounds)
	}
	return srv.Digest()
}

// TestEpochDigestMatchesSync is the tentpole convergence property in its
// purest form: under quiescence, a pure-lamport epoch run commits the exact
// posts into the exact rounds a synchronous-barrier run does — the final
// board digests are byte-identical.
func TestEpochDigestMatchesSync(t *testing.T) {
	sync1 := epochWorkload(t, server.ModeSync)
	epoch1 := epochWorkload(t, server.ModeEpoch)
	if !bytes.Equal(sync1, epoch1) {
		t.Fatalf("digests diverge:\nsync  %x\nepoch %x", sync1, epoch1)
	}
}
