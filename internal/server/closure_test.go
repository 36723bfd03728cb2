package server

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/object"
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

// send dispatches one sequenced frame on sess, which must succeed, and
// returns the response.
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

// arrive ends sess's round: a barrier in sync mode, which blocks until the
// round commits and so runs on its own goroutine, or a stamp of round+1 in
// epoch mode. It returns once the server has recorded the arrival; the
// channel yields the frame's response.
func (r *frameRig) arrive(sess *session) <-chan wire.Response {
	r.tb.Helper()
	out := make(chan wire.Response, 1)
	target := r.state().round + 1
	if r.s.cfg.Mode == ModeEpoch {
		out <- r.send(sess, wire.Request{Type: wire.ReqEpoch, Epoch: target})
		return out
	}
	r.seqs[sess]++
	req := wire.Request{Type: wire.ReqBarrier, Session: sess.id, Seq: r.seqs[sess]}
	go func() { out <- r.s.dispatch(sess, &req) }()
	from, to := sess.memberRange()
	r.waitFor("barrier arrival", func() bool {
		for p := from; p < to; p++ {
			if r.s.active[p] && r.s.lastStamp[p] < target {
				return false
			}
		}
		return true
	})
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

// answered asserts that a sync barrier was released with round want. An
// epoch frame never blocks: it answers the round open after its own stamp,
// and send already checked it for errors.
func (r *frameRig) answered(ch <-chan wire.Response, want int) {
	r.tb.Helper()
	select {
	case resp := <-ch:
		if r.s.cfg.Mode == ModeSync && (resp.Err != "" || resp.Round != want) {
			r.tb.Fatalf("arrival answered %+v, want round %d", resp, want)
		}
	case <-time.After(5 * time.Second):
		r.tb.Fatalf("arrival still blocked (state %+v)", r.state())
	}
}

// executeRaw runs one frame straight through the executor, below the
// dedup layer. A connection never gets here with a second frame while its
// session's barrier blocks ("previous request still executing"), so this
// is how a test reaches the executor's own double-arrival guard.
func (r *frameRig) executeRaw(sess *session, req wire.Request) wire.Response {
	r.tb.Helper()
	out := make(chan wire.Response, 1)
	go func() {
		r.s.mu.Lock()
		defer r.s.mu.Unlock()
		out <- r.s.executeLocked(sess, &req)
	}()
	select {
	case resp := <-out:
		return resp
	case <-time.After(5 * time.Second):
		r.tb.Fatalf("%v frame blocked instead of failing", req.Type)
		return wire.Response{}
	}
}

// TestClosureCounter pins the edges of the round-closure counter — the
// number of active players whose stamp is past the open round — with raw
// frames, in every mode the edge applies to. Closure is
// registered ≥ Expected && active > 0 && closed == active.
func TestClosureCounter(t *testing.T) {
	both := []Mode{ModeSync, ModeEpoch}
	cases := []struct {
		name     string
		modes    []Mode
		players  int
		expected int // 0: every player
		run      func(r *frameRig)
	}{
		{
			name: "stale stamp does not count", modes: both, players: 2,
			run: func(r *frameRig) {
				a, b := r.join(0), r.join(1)
				wa := r.arrive(a)
				r.expect(closureState{round: 0, registered: 2, active: 2, closed: 1})
				wb := r.arrive(b)
				r.answered(wa, 1)
				r.answered(wb, 1)
				// Both stamps now equal the open round: neither is past it.
				r.expect(closureState{round: 1, registered: 2, active: 2, closed: 0})
				if r.s.cfg.Mode == ModeEpoch {
					for _, e := range []int{1, 0} {
						if resp := r.send(a, wire.Request{Type: wire.ReqEpoch, Epoch: e}); resp.Round != 1 {
							r.tb.Fatalf("stale stamp %d answered round %d", e, resp.Round)
						}
					}
					r.expect(closureState{round: 1, registered: 2, active: 2, closed: 0})
				}
				wb = r.arrive(b)
				r.expect(closureState{round: 1, registered: 2, active: 2, closed: 1})
				wa = r.arrive(a)
				r.answered(wa, 2)
				r.answered(wb, 2)
				r.expect(closureState{round: 2, registered: 2, active: 2, closed: 0})
			},
		},
		{
			name: "late joiner's stale stamp does not count", modes: []Mode{ModeEpoch}, players: 2, expected: 1,
			run: func(r *frameRig) {
				a := r.join(0)
				r.send(a, wire.Request{Type: wire.ReqEpoch, Epoch: 1})
				b := r.join(1)
				r.expect(closureState{round: 1, registered: 2, active: 2, closed: 0})
				// b's stamp moves from 0 to 1 but does not pass round 1.
				r.send(b, wire.Request{Type: wire.ReqEpoch, Epoch: 1})
				r.expect(closureState{round: 1, registered: 2, active: 2, closed: 0})
				r.send(a, wire.Request{Type: wire.ReqEpoch, Epoch: 2})
				r.expect(closureState{round: 1, registered: 2, active: 2, closed: 1})
				r.send(b, wire.Request{Type: wire.ReqEpoch, Epoch: 2})
				r.expect(closureState{round: 2, registered: 2, active: 2, closed: 0})
			},
		},
		{
			name: "stamp ahead stays closed through back-to-back seals", modes: []Mode{ModeEpoch}, players: 2,
			run: func(r *frameRig) {
				a, b := r.join(0), r.join(1)
				r.send(a, wire.Request{Type: wire.ReqEpoch, Epoch: 4})
				r.expect(closureState{round: 0, registered: 2, active: 2, closed: 1})
				r.send(b, wire.Request{Type: wire.ReqEpoch, Epoch: 1})
				r.expect(closureState{round: 1, registered: 2, active: 2, closed: 1})
				// One frame closes rounds 1 and 2: two seals in one advance,
				// a's stamp re-derived as closed after each.
				if resp := r.send(b, wire.Request{Type: wire.ReqEpoch, Epoch: 3}); resp.Round != 3 {
					r.tb.Fatalf("stamp 3 answered round %d, want 3", resp.Round)
				}
				r.expect(closureState{round: 3, registered: 2, active: 2, closed: 1})
				r.send(b, wire.Request{Type: wire.ReqEpoch, Epoch: 4})
				r.expect(closureState{round: 4, registered: 2, active: 2, closed: 0})
			},
		},
		{
			name: "done from the last unclosed member seals", modes: both, players: 4,
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
			name: "closed member's departure leaves the round open", modes: both, players: 3,
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
			name:  "Expected gate holds a closed round until the last block registers",
			modes: both, players: 6, expected: 4,
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
			name: "sync double barrier errors", modes: []Mode{ModeSync}, players: 4,
			run: func(r *frameRig) {
				a, b := r.join(0), r.join(1)
				sw := r.joinSwarm(2, 4)
				wa, ws := r.arrive(a), r.arrive(sw)
				for _, sess := range []*session{a, sw} {
					for _, req := range []wire.Request{
						{Type: wire.ReqBarrier},
						{Type: wire.ReqPostBatch, EndRound: true},
					} {
						resp := r.executeRaw(sess, req)
						if !strings.Contains(resp.Err, "double barrier") {
							r.tb.Fatalf("second %v in one round: %+v", req.Type, resp)
						}
					}
				}
				r.expect(closureState{round: 0, registered: 4, active: 4, closed: 3})
				wb := r.arrive(b)
				for _, w := range []<-chan wire.Response{wa, ws, wb} {
					r.answered(w, 1)
				}
			},
		},
	}
	for _, tc := range cases {
		for _, mode := range tc.modes {
			t.Run(tc.name+"/"+mode.String(), func(t *testing.T) {
				cfg := rigConfig(t, mode, tc.players)
				cfg.Expected = tc.expected
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
		r.send(a, wire.Request{Type: wire.ReqEpoch, Epoch: 1})
		r.expect(closureState{round: 0, registered: 3, active: 3, closed: 1})
		if expire {
			// The connection drops and the lease runs out unresumed.
			r.s.disconnect(sw, r.gens[sw])
			r.waitFor("lease expiry", func() bool { return r.s.round == 1 })
		} else {
			r.send(sw, wire.Request{Type: wire.ReqSwarmDone, Players: []int{1, 2}})
		}
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
