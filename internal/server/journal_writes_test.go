package server

import (
	"testing"

	"repro/internal/journal"
	"repro/internal/wire"
)

// writeCounter counts the writes that reach a store, through its mirror.
type writeCounter struct{ n int }

func (c *writeCounter) watch(st *journal.Store) { st.SetMirror(func([]byte) { c.n++ }) }

// expectWrites runs send and checks that exactly want store writes landed.
func (c *writeCounter) expectWrites(t *testing.T, what string, want int, send func()) {
	t.Helper()
	before := c.n
	send()
	if got := c.n - before; got != want {
		t.Fatalf("%s reached its store in %d writes, want %d", what, got, want)
	}
}

// TestPersistOneStoreWritePerRequest pins the write-ahead path's batching:
// every record a probe batch, post batch or done produces reaches the store
// in one write, and the request's side effects — probes charged — happen
// only once that write succeeded.
func TestPersistOneStoreWritePerRequest(t *testing.T) {
	const k = 8
	t.Run("coordinator", func(t *testing.T) {
		cfg := rigConfig(t, ModeSync, k+1)
		st, err := journal.OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Persist = st
		r := newFrameRig(t, cfg)
		defer r.s.Close()
		var c writeCounter
		c.watch(st)
		swarm := r.joinSwarm(0, k)
		other := r.join(k) // never arrives: no request below closes a round

		probes := make([]wire.ProbeMsg, k)
		posts := make([]wire.PostMsg, k)
		players := make([]int, k)
		for i := range probes {
			probes[i] = wire.ProbeMsg{Player: i, Object: i}
			posts[i] = wire.PostMsg{Player: i, Object: i, Value: 1, Positive: i%2 == 0}
			players[i] = i
		}
		c.expectWrites(t, "a k-probe batch", 1, func() {
			r.send(swarm, wire.Request{Type: wire.ReqProbeBatch, Probes: probes})
		})
		c.expectWrites(t, "a k-post batch", 1, func() {
			r.send(swarm, wire.Request{Type: wire.ReqPostBatch, Posts: posts})
		})
		var arrival <-chan wire.Response
		c.expectWrites(t, "a k-post batch ending the round", 1, func() {
			arrival = r.start(swarm, wire.Request{Type: wire.ReqPostBatch, Posts: posts, EndRound: true, Epoch: 1})
		})
		r.send(other, wire.Request{Type: wire.ReqEpoch, Epoch: 1}) // commits round 0
		if resp := <-arrival; resp.Err != "" {
			t.Fatalf("arrival: %s", resp.Err)
		}
		c.expectWrites(t, "a k-player done", 1, func() {
			r.send(swarm, wire.Request{Type: wire.ReqDone, Players: players})
		})

		// A failed write charges nothing.
		r.s.mu.Lock()
		charged := r.s.probes[k]
		r.s.mu.Unlock()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		r.reject(other, wire.Request{Type: wire.ReqProbeBatch, Probes: []wire.ProbeMsg{
			{Player: k, Object: 1}, {Player: k, Object: 2},
		}}, "journal")
		r.s.mu.Lock()
		defer r.s.mu.Unlock()
		if r.s.probes[k] != charged {
			t.Fatalf("probes charged past a failed journal write: %d, want %d", r.s.probes[k], charged)
		}
	})
}
