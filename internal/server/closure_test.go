package server

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/wire"
)

const rigSwarmToken = "swarm"

// rigConfig is an in-memory server config for players tokens, with swarm
// sessions enabled.
func rigConfig(tb testing.TB, mode Mode, players int) Config {
	tb.Helper()
	u, err := object.NewPlanted(object.Planted{M: 32, Good: 1}, rng.New(7))
	if err != nil {
		tb.Fatal(err)
	}
	tokens := make([]string, players)
	for i := range tokens {
		tokens[i] = "tok"
	}
	return Config{
		Universe: u, Tokens: tokens, Alpha: 1, Beta: u.Beta(),
		Mode: mode, SwarmToken: rigSwarmToken,
	}
}

// frameRig drives a server in-process with raw wire frames through the
// entry points a connection handler uses (hello, dispatch): pacing runs
// exactly as on the wire, without sockets, codecs or a client library.
type frameRig struct {
	tb   testing.TB
	s    *Server
	ids  uint64
	seqs map[*session]uint64
	gens map[*session]int
}

func newFrameRig(tb testing.TB, cfg Config) *frameRig {
	tb.Helper()
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return &frameRig{tb: tb, s: s, seqs: make(map[*session]uint64), gens: make(map[*session]int)}
}

// hello opens a fresh session and fails the benchmark or test on refusal.
func (r *frameRig) hello(req wire.Request) *session {
	r.tb.Helper()
	r.ids++
	req.Type, req.Version, req.Session = wire.ReqHello, wire.Version, r.ids
	resp, sess, gen := r.s.hello(&req)
	if resp.Err != "" {
		r.tb.Fatalf("hello %+v: %s", req, resp.Err)
	}
	r.gens[sess] = gen
	return sess
}

// join registers player p on its own session.
func (r *frameRig) join(p int) *session {
	r.tb.Helper()
	return r.hello(wire.Request{Player: p, Token: r.s.cfg.Tokens[p]})
}

// joinSwarm registers the block [from, to) on one swarm session.
func (r *frameRig) joinSwarm(from, to int) *session {
	r.tb.Helper()
	return r.hello(wire.Request{Swarm: true, Player: from, PlayerTo: to, Token: rigSwarmToken})
}

// send dispatches one sequenced frame on sess, which must succeed without
// waiting on other players (no arrival), and returns the response.
func (r *frameRig) send(sess *session, req wire.Request) wire.Response {
	r.tb.Helper()
	r.seqs[sess]++
	req.Session, req.Seq = sess.id, r.seqs[sess]
	resp := r.s.dispatch(sess, &req)
	if resp.Err != "" {
		r.tb.Fatalf("%v frame: %s", req.Type, resp.Err)
	}
	return resp
}

// reject dispatches one sequenced frame on sess that the server must refuse
// with an error containing want.
func (r *frameRig) reject(sess *session, req wire.Request, want string) {
	r.tb.Helper()
	r.seqs[sess]++
	req.Session, req.Seq = sess.id, r.seqs[sess]
	if resp := r.s.dispatch(sess, &req); !strings.Contains(resp.Err, want) {
		r.tb.Fatalf("%v frame answered %+v, want an error containing %q", req.Type, resp, want)
	}
}

// closureState is a snapshot of the round-closure bookkeeping.
type closureState struct{ round, registered, active, closed int }

func (r *frameRig) state() closureState {
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	return closureState{r.s.round, r.s.nRegistered, r.s.nActive, r.s.nClosed}
}

func (r *frameRig) expect(want closureState) {
	r.tb.Helper()
	if got := r.state(); got != want {
		r.tb.Fatalf("closure state = %+v, want %+v", got, want)
	}
}

// arrive ends sess's round: an arrival stamped one past the open round.
// See arriveAt.
func (r *frameRig) arrive(sess *session) <-chan wire.Response {
	r.tb.Helper()
	return r.arriveAt(sess, r.state().round+1)
}

// arriveAt sends sess's arrival stamped target. See start.
func (r *frameRig) arriveAt(sess *session, target int) <-chan wire.Response {
	r.tb.Helper()
	return r.start(sess, wire.Request{Type: wire.ReqEpoch, Epoch: target})
}

// start dispatches one sequenced frame on sess on its own goroutine — an
// arrival waits until its round commits — and returns once the server has
// taken it: the frame's sequence number is recorded, so an arrival's stamp
// is in place and the frame is answered or waiting. The channel yields the
// response.
func (r *frameRig) start(sess *session, req wire.Request) <-chan wire.Response {
	r.tb.Helper()
	r.seqs[sess]++
	req.Session, req.Seq = sess.id, r.seqs[sess]
	out := make(chan wire.Response, 1)
	go func() { out <- r.s.dispatch(sess, &req) }()
	r.waitFor("arrival", func() bool { return sess.lastSeq >= req.Seq })
	return out
}

// resend re-sends sess's frame seq, an arrival stamped target, as a swarm
// client does after a reconnect. It returns once the server has counted the
// frame as a replay.
func (r *frameRig) resend(sess *session, seq uint64, target int) <-chan wire.Response {
	r.tb.Helper()
	replays := r.s.m.dedupReplays.Value()
	req := wire.Request{Type: wire.ReqEpoch, Epoch: target, Session: sess.id, Seq: seq}
	out := make(chan wire.Response, 1)
	go func() { out <- r.s.dispatch(sess, &req) }()
	r.waitFor("resent arrival", func() bool { return r.s.m.dedupReplays.Value() > replays })
	return out
}

// waitFor polls cond under the server lock.
func (r *frameRig) waitFor(what string, cond func() bool) {
	r.tb.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		r.s.mu.Lock()
		ok := cond()
		r.s.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			r.tb.Fatalf("timed out waiting for %s (state %+v)", what, r.state())
		}
		time.Sleep(time.Millisecond)
	}
}

// answered asserts that an arrival was released with round want.
func (r *frameRig) answered(ch <-chan wire.Response, want int) {
	r.tb.Helper()
	select {
	case resp := <-ch:
		if resp.Err != "" || resp.Round != want {
			r.tb.Fatalf("arrival answered %+v, want round %d", resp, want)
		}
	case <-time.After(5 * time.Second):
		r.tb.Fatalf("arrival still waiting (state %+v)", r.state())
	}
}

// waiting asserts that an arrival has not been answered yet.
func (r *frameRig) waiting(ch <-chan wire.Response) {
	r.tb.Helper()
	select {
	case resp := <-ch:
		r.tb.Fatalf("arrival answered %+v before its round committed (state %+v)", resp, r.state())
	default:
	}
}

// TestClosureCounter pins the edges of the round-closure counter — the
// number of active players whose stamp is past the open round — with raw
// frames. Arrival is the same in both modes, so every edge runs in both.
// Closure is registered ≥ Expected && active > 0 && closed == active.
func TestClosureCounter(t *testing.T) {
	cases := []struct {
		name     string
		players  int
		expected int // 0: every player
		run      func(r *frameRig)
	}{
		{
			name: "stale stamp does not count", players: 2,
			run: func(r *frameRig) {
				a, b := r.join(0), r.join(1)
				wa := r.arrive(a)
				r.expect(closureState{round: 0, registered: 2, active: 2, closed: 1})
				wb := r.arrive(b)
				r.answered(wa, 1)
				r.answered(wb, 1)
				// Both stamps now equal the open round: neither is past it.
				r.expect(closureState{round: 1, registered: 2, active: 2, closed: 0})
				// A stale arrival, bare or fused, answers at once.
				for _, req := range []wire.Request{
					{Type: wire.ReqEpoch, Epoch: 1},
					{Type: wire.ReqPostBatch, EndRound: true, Epoch: 1},
				} {
					r.answered(r.start(a, req), 1)
				}
				r.expect(closureState{round: 1, registered: 2, active: 2, closed: 0})
				wb = r.arrive(b)
				r.expect(closureState{round: 1, registered: 2, active: 2, closed: 1})
				wa = r.arrive(a)
				r.answered(wa, 2)
				r.answered(wb, 2)
				r.expect(closureState{round: 2, registered: 2, active: 2, closed: 0})
			},
		},
		{
			name: "late joiner's stale stamp does not count", players: 2, expected: 1,
			run: func(r *frameRig) {
				a := r.join(0)
				r.answered(r.arriveAt(a, 1), 1)
				b := r.join(1)
				r.expect(closureState{round: 1, registered: 2, active: 2, closed: 0})
				// b's stamp moves from 0 to 1 but does not pass round 1.
				r.answered(r.arriveAt(b, 1), 1)
				r.expect(closureState{round: 1, registered: 2, active: 2, closed: 0})
				wa := r.arriveAt(a, 2)
				r.expect(closureState{round: 1, registered: 2, active: 2, closed: 1})
				wb := r.arriveAt(b, 2)
				r.answered(wa, 2)
				r.answered(wb, 2)
				r.expect(closureState{round: 2, registered: 2, active: 2, closed: 0})
			},
		},
		{
			name: "stamp ahead stays closed through back-to-back seals", players: 2,
			run: func(r *frameRig) {
				a, b := r.join(0), r.join(1)
				wa := r.arriveAt(a, 4)
				r.expect(closureState{round: 0, registered: 2, active: 2, closed: 1})
				r.answered(r.arriveAt(b, 1), 1)
				r.expect(closureState{round: 1, registered: 2, active: 2, closed: 1})
				// One frame closes rounds 1 and 2: two seals in one advance,
				// a's stamp re-derived as closed after each.
				r.answered(r.arriveAt(b, 3), 3)
				r.expect(closureState{round: 3, registered: 2, active: 2, closed: 1})
				r.waiting(wa)
				wb := r.arriveAt(b, 4)
				r.answered(wa, 4)
				r.answered(wb, 4)
				r.expect(closureState{round: 4, registered: 2, active: 2, closed: 0})
			},
		},
		{
			name: "done from the last unclosed member seals", players: 4,
			run: func(r *frameRig) {
				a, b := r.join(0), r.join(1)
				sw := r.joinSwarm(2, 4)
				wa, ws := r.arrive(a), r.arrive(sw)
				r.expect(closureState{round: 0, registered: 4, active: 4, closed: 3})
				if resp := r.send(b, wire.Request{Type: wire.ReqDone}); resp.Round != 1 {
					r.tb.Fatalf("done answered round %d, want 1", resp.Round)
				}
				r.answered(wa, 1)
				r.answered(ws, 1)
				r.expect(closureState{round: 1, registered: 4, active: 3, closed: 0})
				// A done batch departs one member at a time: the round seals
				// when its last unclosed member leaves.
				wa = r.arrive(a)
				r.send(sw, wire.Request{Type: wire.ReqSwarmDone, Players: []int{2}})
				r.expect(closureState{round: 1, registered: 4, active: 2, closed: 1})
				if resp := r.send(sw, wire.Request{Type: wire.ReqSwarmDone, Players: []int{3}}); resp.Round != 2 {
					r.tb.Fatalf("swarm-done answered round %d, want 2", resp.Round)
				}
				r.answered(wa, 2)
				r.expect(closureState{round: 2, registered: 4, active: 1, closed: 0})
			},
		},
		{
			name: "closed member's departure leaves the round open", players: 3,
			run: func(r *frameRig) {
				a, b, c := r.join(0), r.join(1), r.join(2)
				wa := r.arrive(a)
				r.expect(closureState{round: 0, registered: 3, active: 3, closed: 1})
				// a's connection drops with no session grace: a departs
				// closed, taking its arrival with it.
				r.s.disconnect(a, r.gens[a])
				r.expect(closureState{round: 0, registered: 3, active: 2, closed: 0})
				wb := r.arrive(b)
				r.expect(closureState{round: 0, registered: 3, active: 2, closed: 1})
				wc := r.arrive(c)
				for _, w := range []<-chan wire.Response{wa, wb, wc} {
					r.answered(w, 1)
				}
				r.expect(closureState{round: 1, registered: 3, active: 2, closed: 0})
			},
		},
		{
			name:    "Expected gate holds a closed round until the last block registers",
			players: 6, expected: 4,
			run: func(r *frameRig) {
				first := r.joinSwarm(0, 2)
				w1 := r.arrive(first)
				// Every active player is closed, but only 2 of 4 expected
				// players have registered.
				r.expect(closureState{round: 0, registered: 2, active: 2, closed: 2})
				last := r.joinSwarm(2, 4)
				r.expect(closureState{round: 0, registered: 4, active: 4, closed: 2})
				w2 := r.arrive(last)
				r.answered(w1, 1)
				r.answered(w2, 1)
				// Tokens 4 and 5 never registered and were never waited for.
				r.expect(closureState{round: 1, registered: 4, active: 4, closed: 0})
			},
		},
		{
			name: "a resent swarm stamp re-executes and counts once", players: 4,
			run: func(r *frameRig) {
				a, b := r.join(0), r.join(1)
				sw := r.joinSwarm(2, 4)
				wa, ws := r.arrive(a), r.arrive(sw)
				r.expect(closureState{round: 0, registered: 4, active: 4, closed: 3})
				// Resent while the original still waits: the resend waits it
				// out, and neither moves a stamp again.
				wr := r.resend(sw, r.seqs[sw], 1)
				r.expect(closureState{round: 0, registered: 4, active: 4, closed: 3})
				r.waiting(wr)
				wb := r.arrive(b)
				for _, w := range []<-chan wire.Response{wa, ws, wr, wb} {
					r.answered(w, 1)
				}
				r.expect(closureState{round: 1, registered: 4, active: 4, closed: 0})
				// Resent after its round committed: answered at once.
				r.answered(r.resend(sw, r.seqs[sw], 1), 1)
				r.expect(closureState{round: 1, registered: 4, active: 4, closed: 0})
			},
		},
		{
			name: "a resent older swarm stamp never moves a stamp back", players: 3,
			run: func(r *frameRig) {
				a, sw := r.join(0), r.joinSwarm(1, 3)
				wa, ws := r.arrive(a), r.arrive(sw)
				r.answered(wa, 1)
				r.answered(ws, 1)
				ws = r.arriveAt(sw, 3)
				r.expect(closureState{round: 1, registered: 3, active: 3, closed: 2})
				// The round-0 arrival, resent behind the waiting one.
				r.answered(r.resend(sw, r.seqs[sw]-1, 1), 1)
				r.expect(closureState{round: 1, registered: 3, active: 3, closed: 2})
				r.answered(r.arrive(a), 2)
				// The block's stamp is still 3, so it stays closed in round 2.
				r.expect(closureState{round: 2, registered: 3, active: 3, closed: 2})
				r.answered(r.arrive(a), 3)
				r.answered(ws, 3)
			},
		},
		{
			name: "an arrival stamped below 1 is rejected", players: 2,
			run: func(r *frameRig) {
				a, b := r.join(0), r.join(1)
				for _, req := range []wire.Request{
					{Type: wire.ReqEpoch},
					{Type: wire.ReqEpoch, Epoch: -1},
					{Type: wire.ReqPostBatch, EndRound: true, Posts: []wire.PostMsg{{Object: 3, Value: 1}}},
				} {
					r.reject(a, req, "arrival stamp")
				}
				r.expect(closureState{round: 0, registered: 2, active: 2, closed: 0})
				wa, wb := r.arrive(a), r.arrive(b)
				r.answered(wa, 1)
				r.answered(wb, 1)
				// The rejected batch applied none of its posts.
				if n := r.s.board.NegativeCount(3); n != 0 {
					r.tb.Fatalf("rejected batch committed %d reports", n)
				}
			},
		},
	}
	for _, tc := range cases {
		for _, mode := range []Mode{ModeSync, ModeEpoch} {
			t.Run(tc.name+"/"+mode.String(), func(t *testing.T) {
				cfg := rigConfig(t, mode, tc.players)
				cfg.Expected = tc.expected
				cfg.Metrics = obs.NewRegistry() // resend waits on the replay counter
				r := newFrameRig(t, cfg)
				defer r.s.Close()
				tc.run(r)
			})
		}
	}
}

// TestClosureSwarmLeaseExpiry pins that a swarm session's lease expiry in
// epoch mode departs its members one at a time through the same closure
// path as a swarm-done frame: the same commit point, counters and board.
func TestClosureSwarmLeaseExpiry(t *testing.T) {
	run := func(expire bool) (closureState, []byte) {
		cfg := rigConfig(t, ModeEpoch, 3)
		cfg.SessionGrace = time.Millisecond
		r := newFrameRig(t, cfg)
		defer r.s.Close()
		a := r.join(0)
		sw := r.joinSwarm(1, 3)
		r.send(a, wire.Request{Type: wire.ReqPostBatch, Posts: []wire.PostMsg{{Object: 3, Value: 1, Positive: true}}})
		r.send(sw, wire.Request{Type: wire.ReqPostBatch, Posts: []wire.PostMsg{
			{Player: 1, Object: 5, Value: 0.5}, {Player: 2, Object: 7, Value: 1, Positive: true},
		}})
		wa := r.arrive(a)
		r.expect(closureState{round: 0, registered: 3, active: 3, closed: 1})
		if expire {
			// The connection drops and the lease runs out unresumed.
			r.s.disconnect(sw, r.gens[sw])
			r.waitFor("lease expiry", func() bool { return r.s.round == 1 })
		} else {
			r.send(sw, wire.Request{Type: wire.ReqSwarmDone, Players: []int{1, 2}})
		}
		r.answered(wa, 1)
		return r.state(), r.s.Digest()
	}
	doneState, doneDigest := run(false)
	leaseState, leaseDigest := run(true)
	want := closureState{round: 1, registered: 3, active: 1, closed: 0}
	if doneState != want || leaseState != want {
		t.Fatalf("after departure: done %+v, lease expiry %+v, want %+v", doneState, leaseState, want)
	}
	if !bytes.Equal(doneDigest, leaseDigest) {
		t.Fatalf("lease expiry committed a different board:\n%x\n%x", leaseDigest, doneDigest)
	}
}

// TestEpochDeadlineRearms pins when the epoch-mode round deadline is armed
// again. A waiter stamped several rounds ahead re-arms it for every round
// it waits on, so a silent straggler slows the run but never stalls it. An
// expiry that finds no stamp past the round seals nothing, and the round's
// next arrival re-arms the timer.
func TestEpochDeadlineRearms(t *testing.T) {
	start := func(t *testing.T, players int) *frameRig {
		cfg := rigConfig(t, ModeEpoch, players)
		cfg.BarrierDeadline = 20 * time.Millisecond
		cfg.Metrics = obs.NewRegistry()
		r := newFrameRig(t, cfg)
		t.Cleanup(func() { r.s.Close() })
		return r
	}
	t.Run("a waiter stamped ahead re-arms each round", func(t *testing.T) {
		r := start(t, 2)
		a, _ := r.join(0), r.join(1)
		// Player 1 stays silent: each of rounds 0, 1 and 2 seals past it.
		r.answered(r.arriveAt(a, 3), 3)
		if n := r.s.m.deadlineSeals.Value(); n != 3 {
			t.Fatalf("%d forced seals, want 3", n)
		}
		if fd := r.s.ForceDone(); len(fd) != 0 {
			t.Fatalf("epoch deadline force-done %v", fd)
		}
	})
	t.Run("an empty expiry waits for the next arrival", func(t *testing.T) {
		r := start(t, 3)
		a, b, _ := r.join(0), r.join(1), r.join(2)
		wa := r.arrive(a)
		// a departs closed, so the expiry finds no stamp past round 0.
		r.s.disconnect(a, r.gens[a])
		r.waitFor("an empty expiry", func() bool { return r.s.armedRound == -1 })
		r.expect(closureState{round: 0, registered: 3, active: 2, closed: 0})
		// b's arrival re-arms the deadline, which seals past player 2.
		wb := r.arrive(b)
		r.answered(wb, 1)
		r.answered(wa, 1)
		r.expect(closureState{round: 1, registered: 3, active: 2, closed: 0})
		if n := r.s.m.deadlineSeals.Value(); n != 1 {
			t.Fatalf("%d forced seals, want 1", n)
		}
	})
}

// TestClosureResentSwarmStampJournalsOnce pins that a swarm client's resent
// arrival re-executes without writing a second journal record: the journal
// holds one arrival per session per round, however often it was resent.
func TestClosureResentSwarmStampJournalsOnce(t *testing.T) {
	for _, mode := range []Mode{ModeSync, ModeEpoch} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			st, err := journal.OpenStore(dir, journal.SyncCommit)
			if err != nil {
				t.Fatal(err)
			}
			cfg := rigConfig(t, mode, 3)
			cfg.Persist = st
			cfg.Metrics = obs.NewRegistry()
			r := newFrameRig(t, cfg)
			a, sw := r.join(0), r.joinSwarm(1, 3)
			for round := 1; round <= 2; round++ {
				wa, ws := r.arrive(a), r.arrive(sw)
				r.answered(wa, round)
				r.answered(ws, round)
				// Resent after its round committed: answered at once.
				r.answered(r.resend(sw, r.seqs[sw], round), round)
			}
			r.s.Close()
			st.Close()

			st, err = journal.OpenStore(dir, journal.SyncCommit)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			perRound := map[int]int{}
			if err := journal.ReplayRecords(st.Tail(), func(rec journal.Record) error {
				if rec.Kind == journal.RecordBarrier && rec.Session == sw.id {
					perRound[rec.Round]++
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(perRound) != 2 || perRound[0] != 1 || perRound[1] != 1 {
				t.Fatalf("swarm arrival records per round = %v, want one in each of rounds 0 and 1", perRound)
			}
		})
	}
}
