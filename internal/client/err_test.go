package client_test

// Sticky-error surface: the billboard.Reader methods of a Cached reader
// cannot return errors, so the client records unrecovered failures and
// reports them via Err() on the next explicit check (a driver checks once
// per round).

import (
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/object"
	"repro/internal/rng"
	"repro/internal/server"
)

func TestStickyErrSurfacesReaderFailures(t *testing.T) {
	u, err := object.NewPlanted(object.Planted{M: 16, Good: 1}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Universe: u, Tokens: []string{"a"}, Alpha: 1, Beta: u.Beta(),
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("")
	if err != nil {
		t.Fatal(err)
	}
	c, err := client.DialOptions(addr, 0, "a", client.Options{
		Retries: 2, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond,
		CallTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cached := client.NewCached(c)
	if err := c.Err(); err != nil {
		t.Fatalf("fresh client has sticky error: %v", err)
	}
	if got := cached.VoteCount(3); got != 0 {
		t.Fatalf("vote count = %d", got)
	}

	// Kill the server for good: reads now silently degrade to zero values —
	// the old failure mode — but Err() must expose what happened.
	srv.Close()
	if got := cached.Votes(0); got != nil {
		t.Fatalf("votes after server death = %v, want nil", got)
	}
	if err := c.Err(); err == nil {
		t.Fatal("reader failure left no sticky error")
	}

	// Once sticky, every later call short-circuits with the same error.
	if _, err := c.Probe(0); err == nil {
		t.Fatal("probe succeeded after sticky error")
	}
	first := c.Err()
	_ = cached.VoteCount(1)
	if c.Err() != first {
		t.Fatalf("sticky error changed: %v → %v", first, c.Err())
	}
}

func TestAppErrorsAreNotSticky(t *testing.T) {
	c0, _ := startPair(t)
	// An application-level rejection (out-of-range probe) is the caller's
	// bug, not a transport failure: it must not poison the session.
	if _, err := c0.Probe(-1); err == nil {
		t.Fatal("out-of-range probe accepted")
	}
	if err := c0.Err(); err != nil {
		t.Fatalf("app error became sticky: %v", err)
	}
	if _, err := c0.Probe(0); err != nil {
		t.Fatalf("session poisoned by app error: %v", err)
	}
}
