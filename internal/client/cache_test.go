package client_test

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/billboard"
	"repro/internal/client"
	"repro/internal/object"
	"repro/internal/rng"
	"repro/internal/server"
)

func startPair(t *testing.T) (*client.Client, *client.Client) {
	t.Helper()
	u, err := object.NewPlanted(object.Planted{M: 16, Good: 1}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Universe: u, Tokens: []string{"a", "b"}, Alpha: 1, Beta: u.Beta(),
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c0, err := client.Dial(addr, 0, "a")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c0.Close() })
	c1, err := client.Dial(addr, 1, "b")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c1.Close() })
	return c0, c1
}

func barrierBoth(t *testing.T, a, b *client.Client) {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(2)
	for _, c := range []*client.Client{a, b} {
		go func(c *client.Client) { defer wg.Done(); _, _ = c.Barrier() }(c)
	}
	wg.Wait()
}

func TestCachedServesStaleWithinRoundFreshAfterInvalidate(t *testing.T) {
	c0, c1 := startPair(t)
	cached := client.NewCached(c0)

	bad := 3 // object 3 might be good in this universe; find a bad one
	for i := 0; i < c0.M(); i++ {
		bad = i
		break
	}
	if err := c1.Post(bad, 1, true); err != nil {
		t.Fatal(err)
	}
	// Prime the cache pre-commit.
	if got := cached.VoteCount(bad); got != 0 {
		t.Fatalf("pre-commit count %d", got)
	}
	barrierBoth(t, c0, c1)
	// Without invalidation the cache is intentionally stale.
	if got := cached.VoteCount(bad); got != 0 {
		t.Fatalf("cache refreshed without Invalidate: %d", got)
	}
	cached.Invalidate()
	if got := cached.VoteCount(bad); got != 1 {
		t.Fatalf("post-invalidate count %d, want 1", got)
	}
	if !cached.HasVote(1) || cached.NumVotedObjects() != 1 {
		t.Fatal("cached vote views wrong after invalidate")
	}
	var wc billboard.WindowCounts
	if cached.CountVotesInWindow(0, 1, &wc); wc.Count(bad) != 1 {
		t.Fatalf("window count %d", wc.Count(bad))
	}
	if cached.NegativeCount(bad) != 0 {
		t.Fatal("spurious negative count")
	}
	if cached.Client() != c0 {
		t.Fatal("Client accessor broken")
	}
}

func TestCachedRoundTracksClient(t *testing.T) {
	c0, c1 := startPair(t)
	cached := client.NewCached(c0)
	if cached.Round() != 0 {
		t.Fatalf("round = %d", cached.Round())
	}
	barrierBoth(t, c0, c1)
	if cached.Round() != 1 {
		t.Fatalf("round after barrier = %d", cached.Round())
	}
}

func TestDialFailures(t *testing.T) {
	// Nothing listening.
	if _, err := client.Dial("127.0.0.1:1", 0, "t"); err == nil {
		t.Fatal("dial to dead address succeeded")
	}
}

func TestCallsAfterServerClose(t *testing.T) {
	c0, _ := startPair(t)
	// Closing the server mid-session: subsequent reads degrade to zero
	// values (Reader interface) and explicit calls error.
	// The server is closed by the test cleanup at the END, so instead close
	// the client side and verify explicit calls fail fast.
	cached := client.NewCached(c0)
	if err := c0.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c0.Post(0, 1, true); err == nil {
		t.Fatal("post on closed client succeeded")
	}
	if got := cached.Votes(0); got != nil {
		t.Fatalf("votes on closed client = %v", got)
	}
	if got := cached.VoteCount(0); got != 0 {
		t.Fatalf("vote count on closed client = %d", got)
	}
	if got := cached.VotedObjects(); got != nil {
		t.Fatalf("voted objects on closed client = %v", got)
	}
	var wc billboard.WindowCounts
	if cached.CountVotesInWindow(0, 1, &wc); wc.Len() != 0 {
		t.Fatalf("window on closed client = %v", wc.Objects())
	}
	if !errors.Is(c0.Err(), client.ErrClosed) {
		t.Fatalf("Err after reads on a closed client = %v, want ErrClosed", c0.Err())
	}
	if _, err := c0.Barrier(); err == nil {
		t.Fatal("barrier on closed client succeeded")
	}
}
