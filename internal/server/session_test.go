package server_test

// Session-lease, dedup, and round-deadline behavior (wire protocol v2).

import (
	"bufio"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/object"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/wire"
)

// startServerCfg is startServer with fault-tolerance knobs.
func startServerCfg(t *testing.T, players, good int, grace, deadline time.Duration) (addr string, tokens []string, srv *server.Server) {
	t.Helper()
	return startServerMode(t, server.ModeSync, players, good, grace, deadline)
}

// startServerMode is startServerCfg in the given mode.
func startServerMode(t *testing.T, mode server.Mode, players, good int, grace, deadline time.Duration) (addr string, tokens []string, srv *server.Server) {
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
		SessionGrace: grace, BarrierDeadline: deadline, Mode: mode,
		Logf: t.Logf,
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

func fastOpts() client.Options {
	return client.Options{
		Retries: 6, BackoffBase: time.Millisecond, BackoffMax: 10 * time.Millisecond,
		CallTimeout: 5 * time.Second,
	}
}

func TestSessionResumeAfterAbort(t *testing.T) {
	addr, _, srv := startServerCfg(t, 2, 4, 5*time.Second, 0)
	c0, err := client.DialOptions(addr, 0, "tok", fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	c1, err := client.DialOptions(addr, 1, "tok", fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	if _, err := c0.Probe(0); err != nil {
		t.Fatal(err)
	}
	// Crash the transport; the next call must reconnect and resume the
	// session transparently.
	c0.Abort()
	if _, err := c0.Probe(1); err != nil {
		t.Fatalf("probe after abort: %v", err)
	}
	if err := c0.Post(1, 1, false); err != nil {
		t.Fatalf("post after abort: %v", err)
	}

	// The resumed session still participates in barriers.
	done := make(chan error, 1)
	go func() {
		_, err := c1.Barrier()
		done <- err
	}()
	if _, err := c0.Barrier(); err != nil {
		t.Fatalf("barrier after resume: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := c0.Err(); err != nil {
		t.Fatalf("sticky error after successful resume: %v", err)
	}

	probes, _, _, _ := srv.Stats()
	if probes[0] != 2 {
		t.Fatalf("server charged %d probes to player 0, want 2", probes[0])
	}
}

func TestSessionLeaseExpiryActsAsDone(t *testing.T) {
	addr, _, srv := startServerCfg(t, 2, 4, 30*time.Millisecond, 0)
	c0, err := client.DialOptions(addr, 0, "tok", fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	c1, err := client.DialOptions(addr, 1, "tok", fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	// Player 1 vanishes past its lease: the server deregisters it, so
	// player 0's barrier completes without it.
	c1.Abort()
	time.Sleep(100 * time.Millisecond)
	if round, err := c0.Barrier(); err != nil || round != 1 {
		t.Fatalf("barrier without expired player: round %d, err %v", round, err)
	}

	// Player 1's session is gone; its resume must fail permanently (the
	// fresh Hello trips "already registered") and the error must stick.
	if _, err := c1.Probe(0); err == nil {
		t.Fatal("probe on expired session succeeded")
	}
	if err := c1.Err(); err == nil {
		t.Fatal("expired session left no sticky error")
	}
	if srv.Round() != 1 {
		t.Fatalf("round = %d, want 1", srv.Round())
	}
}

// rawSession drives the wire protocol by hand to exercise retransmission.
// Multi-frame connections speak the v6 stream codecs, like a real client.
type rawSession struct {
	t    *testing.T
	conn net.Conn
	enc  *wire.StreamEncoder
	dec  *wire.StreamDecoder
}

func rawDial(t *testing.T, addr string) *rawSession {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawSession{
		t: t, conn: conn,
		enc: wire.NewStreamEncoder(conn),
		dec: wire.NewStreamDecoder(bufio.NewReader(conn)),
	}
}

func (r *rawSession) roundTrip(req wire.Request) *wire.Response {
	r.t.Helper()
	if err := r.enc.EncodeRequest(&req); err != nil {
		r.t.Fatal(err)
	}
	resp := new(wire.Response)
	if err := r.dec.DecodeResponse(resp); err != nil {
		r.t.Fatal(err)
	}
	return resp
}

// TestRetransmittedProbeChargedOnce pins the player credential's recorded
// replay: a resent sequence number gets the recorded response and is never
// charged again — also when the resend names a different object, which a
// recomputed answer would reveal without charging for it.
func TestRetransmittedProbeChargedOnce(t *testing.T) {
	addr, _, srv := startServerCfg(t, 1, 4, 5*time.Second, 0)
	// The universe startServerCfg plants, to name one bad and one good object.
	u, err := object.NewPlanted(object.Planted{M: 32, Good: 4}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	bad, good := firstBad(u), firstGood(u)
	const session = 0xdecaf
	probe := func(obj int, seq uint64) wire.Request {
		return wire.Request{
			Type: wire.ReqProbeBatch, Probes: []wire.ProbeMsg{{Player: 0, Object: obj}},
			Session: session, Seq: seq,
		}
	}

	hello := wire.Request{
		Type: wire.ReqHello, Player: 0, Token: "tok",
		Version: wire.Version, Session: session,
	}
	c1 := rawDial(t, addr)
	if resp := c1.roundTrip(hello); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	first := c1.roundTrip(probe(bad, 1))
	if first.Err != "" {
		t.Fatal(first.Err)
	}
	if len(first.ProbeResults) != 1 || first.ProbeResults[0].Good {
		t.Fatalf("probe of bad object %d answered %+v", bad, first.ProbeResults)
	}

	// Simulate a lost response: a second connection resumes the session and
	// retransmits the same sequence number. The server must replay the
	// recorded response, not execute (and charge) the probe again.
	c2 := rawDial(t, addr)
	if resp := c2.roundTrip(hello); resp.Err != "" {
		t.Fatalf("resume: %v", resp.Err)
	}
	for _, obj := range []int{bad, good} {
		replay := c2.roundTrip(probe(obj, 1))
		if replay.Err != "" {
			t.Fatal(replay.Err)
		}
		if !reflect.DeepEqual(replay.ProbeResults, first.ProbeResults) {
			t.Fatalf("resend naming object %d answered %+v, want the recorded %+v",
				obj, replay.ProbeResults, first.ProbeResults)
		}
	}
	probes, cost, satisfied, _ := srv.Stats()
	if probes[0] != 1 || cost[0] != u.Cost(bad) || satisfied[0] {
		t.Fatalf("server charged %d probes costing %v (satisfied %v), want the one probe of object %d",
			probes[0], cost[0], satisfied[0], bad)
	}

	// Stale and gapped sequence numbers are rejected outright.
	if resp := c2.roundTrip(probe(bad, 0)); resp.Err == "" {
		t.Fatal("seq 0 accepted")
	}
	if resp := c2.roundTrip(probe(bad, 5)); !strings.Contains(resp.Err, "gap") {
		t.Fatalf("sequence gap accepted: %+v", resp)
	}
}

func TestSessionHijackRejected(t *testing.T) {
	addr, _, _ := startServerCfg(t, 2, 4, 5*time.Second, 0)
	const session = 0xbeef

	c0 := rawDial(t, addr)
	if resp := c0.roundTrip(wire.Request{
		Type: wire.ReqHello, Player: 0, Token: "tok",
		Version: wire.Version, Session: session,
	}); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	// Player 1 presenting player 0's session id must be turned away.
	c1 := rawDial(t, addr)
	resp := c1.roundTrip(wire.Request{
		Type: wire.ReqHello, Player: 1, Token: "tok",
		Version: wire.Version, Session: session,
	})
	if !strings.Contains(resp.Err, "another player") {
		t.Fatalf("cross-player session resume accepted: %+v", resp)
	}
}

// TestBarrierDeadlineForceDonesStragglers pins the round deadline's policy
// in each mode. Either way a round whose straggler never arrives commits
// once the deadline expires, with the straggler's buffered post. Sync mode
// force-Dones the straggler: it may neither arrive nor re-register. Epoch
// mode seals past it: nobody is force-Done'd, and the straggler stays
// registered.
func TestBarrierDeadlineForceDonesStragglers(t *testing.T) {
	for _, mode := range []server.Mode{server.ModeSync, server.ModeEpoch} {
		t.Run(mode.String(), func(t *testing.T) {
			addr, _, srv := startServerMode(t, mode, 2, 4, time.Minute, 80*time.Millisecond)
			c0, err := client.DialOptions(addr, 0, "tok", fastOpts())
			if err != nil {
				t.Fatal(err)
			}
			defer c0.Close()
			c1, err := client.DialOptions(addr, 1, "tok", fastOpts())
			if err != nil {
				t.Fatal(err)
			}
			defer c1.Close()

			// Player 1 posts but never arrives. Without the deadline player 0
			// would hang forever (player 1's long session grace keeps it
			// active).
			if err := c1.Post(2, 1, false); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			round, err := c0.Barrier()
			if err != nil {
				t.Fatalf("barrier: %v", err)
			}
			if round != 1 {
				t.Fatalf("round = %d, want 1", round)
			}
			if elapsed := time.Since(start); elapsed < 60*time.Millisecond || elapsed > 5*time.Second {
				t.Fatalf("barrier returned after %v; want ~80ms deadline", elapsed)
			}
			// The straggler's round-0 (negative) post still committed with
			// the round.
			if got := client.NewCached(c0).NegativeCount(2); got == 0 {
				t.Fatal("straggler's committed post lost")
			}

			fd := srv.ForceDone()
			if mode == server.ModeEpoch {
				if len(fd) != 0 {
					t.Fatalf("epoch deadline force-done %v", fd)
				}
				// Still registered: its late arrival finds its round sealed
				// and is answered at once.
				if r, err := c1.Barrier(); err != nil || r != 1 {
					t.Fatalf("straggler's late arrival: round %d, err %v", r, err)
				}
				return
			}
			if r, ok := fd[1]; !ok || r != 0 {
				t.Fatalf("force-done map = %v, want player 1 in round 0", fd)
			}
			// The expelled player is out: barrier is an application error
			// (not a transport failure, so the client surfaces it
			// immediately)…
			if _, err := c1.Barrier(); err == nil {
				t.Fatal("barrier from force-done player succeeded")
			}
			// …and a fresh registration attempt is refused.
			c2, err := client.DialOptions(addr, 1, "tok", fastOpts())
			if err == nil {
				c2.Close()
				t.Fatal("force-done player re-registered")
			}
			if !strings.Contains(err.Error(), "force-done") {
				t.Fatalf("unexpected rejection: %v", err)
			}
		})
	}
}

func TestBarrierDeadlineNotArmedWhenAllArrive(t *testing.T) {
	// A deadline must not fire across round boundaries: rounds that
	// complete promptly never expel anyone.
	addr, _, srv := startServerCfg(t, 2, 4, time.Minute, 50*time.Millisecond)
	c0, err := client.DialOptions(addr, 0, "tok", fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	c1, err := client.DialOptions(addr, 1, "tok", fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	for round := 0; round < 3; round++ {
		done := make(chan error, 1)
		go func() {
			_, err := c1.Barrier()
			done <- err
		}()
		if _, err := c0.Barrier(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := <-done; err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	time.Sleep(120 * time.Millisecond) // any stale timer would fire now
	if fd := srv.ForceDone(); len(fd) != 0 {
		t.Fatalf("spurious force-done: %v", fd)
	}
	if srv.Round() != 3 {
		t.Fatalf("round = %d, want 3", srv.Round())
	}
}
