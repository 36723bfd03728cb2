package server_test

// Unit tests for the durable-restart path (Config.Persist): exact state
// recovery across a kill, discard-and-fence of uncommitted rounds, and the
// lease-timer lifecycle around Close.

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/billboard"
	"repro/internal/client"
	"repro/internal/journal"
	"repro/internal/object"
	"repro/internal/rng"
	"repro/internal/server"
)

func plantedUniverse(t *testing.T) *object.Universe {
	t.Helper()
	u, err := object.NewPlanted(object.Planted{M: 16, Good: 1}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func firstBad(u *object.Universe) int {
	for i := 0; i < u.M(); i++ {
		if !u.IsGood(i) {
			return i
		}
	}
	return -1
}

// TestPersistRestartExactState kills a persist-backed server between rounds
// and restarts it from the store on the same address: the round counter,
// board, probe ledger, membership rules, and live client sessions must all
// carry over — the restart is indistinguishable from a long reconnect.
func TestPersistRestartExactState(t *testing.T) {
	u := plantedUniverse(t)
	bad := firstBad(u)
	dir := t.TempDir()
	tokens := []string{"tok", "tok"}

	newPersistServer := func() (*server.Server, *journal.Store) {
		st, err := journal.OpenStore(dir, journal.SyncCommit)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(server.Config{
			Universe: u, Tokens: tokens, Alpha: 1, Beta: u.Beta(),
			Persist: st, SnapshotEvery: 2,
			SessionGrace: 10 * time.Second,
		})
		if err != nil {
			st.Close()
			t.Fatal(err)
		}
		return srv, st
	}

	srv1, st1 := newPersistServer()
	addr, err := srv1.Start("")
	if err != nil {
		t.Fatal(err)
	}
	opts := client.Options{Retries: 24, BackoffBase: time.Millisecond, BackoffMax: 20 * time.Millisecond}
	c0, err := client.DialOptions(addr, 0, "tok", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	c1, err := client.DialOptions(addr, 1, "tok", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	barrierBoth := func() {
		var wg sync.WaitGroup
		wg.Add(2)
		for _, c := range []*client.Client{c0, c1} {
			go func(c *client.Client) { defer wg.Done(); _, _ = c.Barrier() }(c)
		}
		wg.Wait()
	}

	if _, err := c0.Probe(bad); err != nil {
		t.Fatal(err)
	}
	if err := c0.Post(bad, 1, true); err != nil {
		t.Fatal(err)
	}
	barrierBoth() // round 0 commits
	if _, err := c1.Probe(bad); err != nil {
		t.Fatal(err)
	}
	if err := c1.Post(bad, 0.5, false); err != nil {
		t.Fatal(err)
	}
	barrierBoth() // round 1 commits (SnapshotEvery=2: rotation happens here)

	// Kill. Clients still hold their sessions.
	srv1.Close()
	st1.Close()

	srv2, st2 := newPersistServer()
	defer st2.Close()
	if srv2.Round() != 2 {
		t.Fatalf("recovered round = %d, want 2", srv2.Round())
	}
	if _, err := srv2.Start(addr); err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer srv2.Close()

	// The clients' next calls ride session resume onto the restarted server.
	if got := c0.VoteCount(bad); got != 1 {
		t.Fatalf("vote count across restart = %d, want 1", got)
	}
	if err := c0.Err(); err != nil {
		t.Fatalf("resume after restart: %v", err)
	}
	if got := c1.NegativeCount(bad); got != 1 {
		t.Fatalf("negative count across restart = %d, want 1", got)
	}
	// The probe ledger recovered exactly: one charged probe per player.
	probes, _, _, _ := srv2.Stats()
	if probes[0] != 1 || probes[1] != 1 {
		t.Fatalf("recovered probe ledger = %v, want [1 1]", probes)
	}
	// The one-vote rule binds across the restart.
	if err := c0.Post(bad+1, 1, true); err != nil {
		t.Fatal(err)
	}
	barrierBoth() // round 2 commits on the recovered server
	if got := len(c1.Votes(0)); got != 1 {
		t.Fatalf("vote cap forgotten across restart: %d votes", got)
	}
	// A second registration under a fresh session is still refused.
	if c, err := client.Dial(addr, 0, "tok"); err == nil {
		c.Close()
		t.Fatal("player 0 re-registered on the recovered server")
	} else if !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("unexpected rejection: %v", err)
	}
}

// TestPersistUncommittedRoundDiscarded: posts without a round marker die
// with the crash (the synchrony contract), and the recovery fences them
// with a rollback so a second recovery of the same store agrees.
func TestPersistUncommittedRoundDiscarded(t *testing.T) {
	u := plantedUniverse(t)
	bad := firstBad(u)
	dir := t.TempDir()
	tokens := []string{"tok", "tok"}

	open := func() (*server.Server, *journal.Store) {
		st, err := journal.OpenStore(dir, journal.SyncCommit)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(server.Config{
			Universe: u, Tokens: tokens, Alpha: 1, Beta: u.Beta(),
			SessionGrace: 10 * time.Second,
			Persist:      st,
		})
		if err != nil {
			st.Close()
			t.Fatal(err)
		}
		return srv, st
	}

	srv1, st1 := open()
	addr, err := srv1.Start("")
	if err != nil {
		t.Fatal(err)
	}
	c0, err := client.Dial(addr, 0, "tok")
	if err != nil {
		t.Fatal(err)
	}
	c1, err := client.Dial(addr, 1, "tok")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	for _, c := range []*client.Client{c0, c1} {
		go func(c *client.Client) { defer wg.Done(); _, _ = c.Barrier() }(c)
	}
	wg.Wait() // round 0 commits
	// Mid-round post, never committed: the crash eats it.
	if err := c0.Post(bad, 1, true); err != nil {
		t.Fatal(err)
	}
	c0.Close()
	c1.Close()
	srv1.Close()
	st1.Close()

	srv2, st2 := open()
	if srv2.Round() != 1 {
		t.Fatalf("recovered round = %d, want 1 (uncommitted round leaked?)", srv2.Round())
	}
	srv2.Close()
	st2.Close()

	// Second recovery of the same store: the rollback marker written by the
	// first must keep the orphaned post discarded.
	srv3, st3 := open()
	defer st3.Close()
	defer srv3.Close()
	if srv3.Round() != 1 {
		t.Fatalf("second recovery round = %d, want 1", srv3.Round())
	}
	// The recovered board is the empty one-round board: the orphaned post on
	// `bad` never resurfaces (a fresh Dial can't check — player 0 is still
	// registered, which is itself part of the recovered state — so compare
	// digests against a board that never saw the post).
	empty, err := billboard.New(billboard.Config{Players: 2, Objects: u.M(), Mode: billboard.FirstPositive})
	if err != nil {
		t.Fatal(err)
	}
	empty.EndRound()
	if !bytes.Equal(srv3.Digest(), empty.Digest()) {
		t.Fatalf("orphaned post on object %d resurfaced:\n%s", bad, srv3.Digest())
	}
}

// TestCloseStopsLeaseTimers pins the timer-leak fix: sessions sitting in
// their grace window when the server closes must have their lease timers
// stopped — no expiry callback may fire into the torn-down server. Run
// under -race this doubles as the regression test for the callback racing
// teardown.
func TestCloseStopsLeaseTimers(t *testing.T) {
	u := plantedUniverse(t)
	var mu sync.Mutex
	var events []string
	logf := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		events = append(events, format)
	}
	srv, err := server.New(server.Config{
		Universe: u, Tokens: []string{"tok", "tok"}, Alpha: 1, Beta: u.Beta(),
		SessionGrace: 30 * time.Millisecond,
		Logf:         logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("")
	if err != nil {
		t.Fatal(err)
	}
	c0, err := client.Dial(addr, 0, "tok")
	if err != nil {
		t.Fatal(err)
	}
	c1, err := client.Dial(addr, 1, "tok")
	if err != nil {
		t.Fatal(err)
	}
	// Both sessions enter their grace window (armed timers)…
	c0.Abort()
	c1.Abort()
	time.Sleep(5 * time.Millisecond) // let the disconnects land
	// …and the server closes mid-window.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Past the grace deadline: a leaked timer would fire (and race the
	// teardown under -race); a stopped one stays silent.
	time.Sleep(60 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	for _, e := range events {
		if strings.Contains(e, "expired") {
			t.Fatalf("lease expiry fired after Close: %q", e)
		}
	}
	c0.Close()
	c1.Close()
}

// TestResumeStopsLeaseTimer: a resume inside the grace window defuses the
// armed timer — the session must not expire at the original deadline.
func TestResumeStopsLeaseTimer(t *testing.T) {
	u := plantedUniverse(t)
	srv, err := server.New(server.Config{
		Universe: u, Tokens: []string{"tok"}, Alpha: 1, Beta: u.Beta(),
		SessionGrace: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	opts := client.Options{Retries: 8, BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond}
	c, err := client.DialOptions(addr, 0, "tok", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Abort()
	// Resume well inside the window, then outlive the original deadline.
	if _, err := c.Probe(0); err != nil {
		t.Fatalf("resume probe: %v", err)
	}
	time.Sleep(80 * time.Millisecond)
	if _, err := c.Probe(1); err != nil {
		t.Fatalf("session expired despite resume: %v", err)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}
