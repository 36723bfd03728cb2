package server

import (
	"strings"
	"testing"

	"repro/internal/wire"
)

// TestSessionRangeRule pins the range rule at the frame level. A player's
// own session is the range [p, p+1): a probe batch, post batch or done that
// also names another player is rejected, and so is a post batch bound for
// the shard lanes of a sharded server. In every case nothing is charged,
// buffered or deregistered, not even the entry that names the session's own
// player.
func TestSessionRangeRule(t *testing.T) {
	const object = 3
	for _, tc := range []struct {
		name   string
		shards int
		req    wire.Request
	}{
		{"probe batch", 0, wire.Request{Type: wire.ReqProbeBatch, Probes: []wire.ProbeMsg{
			{Player: 0, Object: object}, {Player: 1, Object: object},
		}}},
		{"post batch", 0, wire.Request{Type: wire.ReqPostBatch, Posts: []wire.PostMsg{
			{Player: 0, Object: object, Value: 1, Positive: true}, {Player: 1, Object: object, Value: 1, Positive: true},
		}}},
		{"done", 0, wire.Request{Type: wire.ReqDone, Players: []int{0, 1}}},
		{"lane post batch", 2, wire.Request{Type: wire.ReqPostBatch, Posts: []wire.PostMsg{
			{Player: 0, Object: object, Value: 1, Positive: true},
			{Player: 1, Object: otherLane(object, 2), Value: 1, Positive: true},
		}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := rigConfig(t, ModeSync, 2)
			cfg.Shards = tc.shards
			r := newFrameRig(t, cfg)
			defer r.s.Close()
			own := r.join(0)
			r.join(1)
			req := tc.req
			req.Session, req.Seq = own.id, 1
			resp := r.s.dispatch(own, &req)
			if want := "player 1 outside session range [0, 1)"; !strings.Contains(resp.Err, want) {
				t.Fatalf("%s naming another player answered %+v, want an error containing %q", tc.name, resp, want)
			}

			r.s.mu.Lock()
			defer r.s.mu.Unlock()
			if r.s.probes[0] != 0 || r.s.probes[1] != 0 {
				t.Errorf("probes charged: %v", r.s.probes)
			}
			pending := 0
			if r.s.board != nil {
				pending = len(r.s.board.Pending())
			}
			for _, ln := range r.s.lanes {
				pending += ln.nPending
			}
			if pending != 0 {
				t.Errorf("%d posts buffered", pending)
			}
			if !r.s.active[0] || !r.s.active[1] || r.s.nActive != 2 {
				t.Errorf("players deregistered: active %v", r.s.active)
			}
		})
	}
}

// otherLane returns the first object after obj that the shard map puts on
// another of shards lanes.
func otherLane(obj, shards int) int {
	for o := obj + 1; ; o++ {
		if wire.Shard(o, shards) != wire.Shard(obj, shards) {
			return o
		}
	}
}
