package server_test

import (
	"bufio"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/billboard"
	"repro/internal/client"
	"repro/internal/object"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/wire"
)

// window reads the window [from, to) through r as a map.
func window(r billboard.Reader, from, to int) map[int]int {
	var wc billboard.WindowCounts
	r.CountVotesInWindow(from, to, &wc)
	counts := make(map[int]int, wc.Len())
	for _, obj := range wc.Objects() {
		counts[obj] = wc.Count(obj)
	}
	return counts
}

func startServer(t *testing.T, players int, good int) (addr string, tokens []string, srv *server.Server) {
	t.Helper()
	u, err := object.NewPlanted(object.Planted{M: 32, Good: good}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	tokens = make([]string, players)
	for i := range tokens {
		tokens[i] = "tok"
	}
	srv, err = server.New(server.Config{
		Universe: u, Tokens: tokens, Alpha: 1, Beta: u.Beta(),
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err = srv.Start("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr, tokens, srv
}

func TestNewValidation(t *testing.T) {
	u, err := object.NewPlanted(object.Planted{M: 8, Good: 1}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	cases := []server.Config{
		{Tokens: []string{"a"}}, // no universe
		{Universe: u},           // no tokens
		{Universe: u, Tokens: []string{"a"}, Expected: 5},  // expected > N
		{Universe: u, Tokens: []string{"a"}, Expected: -1}, // negative
	}
	for i, cfg := range cases {
		if _, err := server.New(cfg); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestAuthRejection(t *testing.T) {
	addr, _, _ := startServer(t, 2, 1)
	if _, err := client.Dial(addr, 0, "wrong"); err == nil {
		t.Fatal("bad token accepted")
	}
	if _, err := client.Dial(addr, 99, "tok"); err == nil {
		t.Fatal("out-of-range player accepted")
	}
	// Correct credentials work...
	c, err := client.Dial(addr, 0, "tok")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// ...and double registration of the same player is rejected.
	if _, err := client.Dial(addr, 0, "tok"); err == nil {
		t.Fatal("double registration accepted")
	}
}

func TestHelloPayload(t *testing.T) {
	addr, _, _ := startServer(t, 3, 2)
	c, err := client.Dial(addr, 1, "tok")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.N() != 3 || c.M() != 32 || !c.LocalTesting() {
		t.Fatalf("hello payload wrong: N=%d M=%d lt=%v", c.N(), c.M(), c.LocalTesting())
	}
	if c.Alpha() != 1 {
		t.Fatalf("alpha = %v", c.Alpha())
	}
	if c.Cost(0) != 1 {
		t.Fatalf("cost = %v", c.Cost(0))
	}
}

func TestBarrierSynchronizesRounds(t *testing.T) {
	addr, _, srv := startServer(t, 2, 1)
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

	// c0 arrives; the round must NOT advance until c1 arrives too.
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
		t.Fatalf("barrier released early with round %d", r)
	case <-time.After(50 * time.Millisecond):
	}
	if srv.Round() != 0 {
		t.Fatalf("round advanced to %d with one arrival", srv.Round())
	}
	if _, err := c1.Barrier(); err != nil {
		t.Fatal(err)
	}
	if r := <-done; r != 1 {
		t.Fatalf("barrier returned round %d, want 1", r)
	}
}

func TestPostsCommitAtRoundEnd(t *testing.T) {
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

	if err := c0.Post(5, 1, true); err != nil {
		t.Fatal(err)
	}
	// Same-round read: invisible.
	if client.NewCached(c1).VoteCount(5) != 0 {
		t.Fatal("post visible before round end")
	}
	var wg sync.WaitGroup
	wg.Add(2)
	for _, c := range []*client.Client{c0, c1} {
		go func(c *client.Client) {
			defer wg.Done()
			_, _ = c.Barrier()
		}(c)
	}
	wg.Wait()
	if client.NewCached(c1).VoteCount(5) != 1 {
		t.Fatal("post not visible after round end")
	}
	votes := client.NewCached(c1).Votes(0)
	if len(votes) != 1 || votes[0].Object != 5 || votes[0].Round != 0 {
		t.Fatalf("votes = %+v", votes)
	}
}

func TestIdentityCannotBeSpoofed(t *testing.T) {
	// The Post request carries no player field the server trusts: the
	// authenticated id is stamped server-side, so posts land under the
	// poster's identity.
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
	if err := c0.Post(3, 1, true); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	for _, c := range []*client.Client{c0, c1} {
		go func(c *client.Client) { defer wg.Done(); _, _ = c.Barrier() }(c)
	}
	wg.Wait()
	if len(client.NewCached(c1).Votes(1)) != 0 {
		t.Fatal("player 1 acquired a vote it never cast")
	}
	if len(client.NewCached(c1).Votes(0)) != 1 {
		t.Fatal("player 0's vote missing")
	}
}

func TestDisconnectActsAsDone(t *testing.T) {
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
	// c1 vanishes without Done; c0's barrier must still complete.
	c1.Close()
	done := make(chan error, 1)
	go func() {
		_, err := c0.Barrier()
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("barrier wedged by a disconnected player")
	}
}

func TestProbeChargesAndReveals(t *testing.T) {
	addr, _, srv := startServer(t, 1, 1)
	c, err := client.Dial(addr, 0, "tok")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	good := -1
	for i := 0; i < c.M(); i++ {
		res, err := c.Probe(i)
		if err != nil {
			t.Fatal(err)
		}
		if res.Good {
			good = i
			break
		}
	}
	if good < 0 {
		t.Fatal("never found the good object")
	}
	probes, cost, satisfied, _ := srv.Stats()
	if probes[0] != good+1 {
		t.Fatalf("server counted %d probes, want %d", probes[0], good+1)
	}
	if cost[0] != float64(good+1) {
		t.Fatalf("server charged %v", cost[0])
	}
	if !satisfied[0] {
		t.Fatal("server did not record satisfaction")
	}
	if _, err := c.Probe(999); err == nil {
		t.Fatal("out-of-range probe accepted")
	}
}

func TestUnauthenticatedRequestsRejected(t *testing.T) {
	// A client that skips Hello must be refused. Use the raw wire shape by
	// dialing with a bad token (Dial fails), then verify the server is
	// still healthy for valid clients.
	addr, _, _ := startServer(t, 1, 1)
	if _, err := client.Dial(addr, 0, "nope"); err == nil {
		t.Fatal("bad token accepted")
	}
	c, err := client.Dial(addr, 0, "tok")
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
}

func TestDoubleBarrierRejected(t *testing.T) {
	addr, _, _ := startServer(t, 2, 1)
	c0, err := client.Dial(addr, 0, "tok")
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	// Only one of two players arrived; a second Barrier on the same conn
	// would deadlock it behind its own pending one, so test the double-
	// arrival guard through Done followed by Barrier instead.
	if err := c0.Done(); err != nil {
		t.Fatal(err)
	}
	if _, err := c0.Barrier(); err == nil {
		t.Fatal("barrier after done accepted")
	}
}

func TestProtocolVersionMismatchRejected(t *testing.T) {
	addr, _, _ := startServer(t, 1, 1)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.EncodeRequest(conn, &wire.Request{
		Type: wire.ReqHello, Player: 0, Token: "tok", Version: 999,
		Session: 1, Seq: 1,
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := wire.DecodeResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err == "" || !strings.Contains(resp.Err, "version") {
		t.Fatalf("version mismatch accepted: %+v", resp)
	}
}

func TestUnauthenticatedNonHelloRejected(t *testing.T) {
	addr, _, _ := startServer(t, 1, 1)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.EncodeRequest(conn, &wire.Request{
		Type: wire.ReqProbeBatch, Probes: []wire.ProbeMsg{{Object: 0}}, Session: 1, Seq: 1,
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := wire.DecodeResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err == "" || !strings.Contains(resp.Err, "hello") {
		t.Fatalf("unauthenticated probe accepted: %+v", resp)
	}
}

// TestNewRefusesHelloPastMaxFrame: a universe whose Hello answer cannot fit
// one frame is refused at construction, with an error naming the limit,
// instead of being served an answer every client decoder refuses. 360k
// Pareto costs take about nine bytes each; the same count of unit costs
// ships no table and is served.
func TestNewRefusesHelloPastMaxFrame(t *testing.T) {
	const m = 360_000
	for _, c := range []struct {
		name  string
		costs []float64
		ok    bool
	}{
		{"unit", nil, true},
		{"pareto", object.ParetoCosts(m, 1.5, rng.New(9)), false},
	} {
		u, err := object.NewPlanted(object.Planted{M: m, Good: 1, Costs: c.costs}, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(server.Config{Universe: u, Tokens: []string{"tok"}, Alpha: 1, Beta: u.Beta()})
		switch {
		case c.ok && err != nil:
			t.Fatalf("%s: %v", c.name, err)
		case !c.ok && (err == nil || !strings.Contains(err.Error(), "wire.MaxFrame")):
			t.Fatalf("%s: New = %v, want a refusal naming wire.MaxFrame", c.name, err)
		}
		if srv != nil {
			srv.Close()
		}
	}
}
