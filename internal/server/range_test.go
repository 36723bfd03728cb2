package server

import (
	"strings"
	"testing"

	"repro/internal/wire"
)

// TestSessionRangeRule pins the range rule at the frame level. A player's
// own session is the range [p, p+1): a probe batch, post batch or done that
// also names another player is rejected. In every case nothing is charged,
// buffered or deregistered, not even the entry that names the session's own
// player.
func TestSessionRangeRule(t *testing.T) {
	const object = 3
	for _, tc := range []struct {
		name string
		req  wire.Request
	}{
		{"probe batch", wire.Request{Type: wire.ReqProbeBatch, Probes: []wire.ProbeMsg{
			{Player: 0, Object: object}, {Player: 1, Object: object},
		}}},
		{"post batch", wire.Request{Type: wire.ReqPostBatch, Posts: []wire.PostMsg{
			{Player: 0, Object: object, Value: 1, Positive: true}, {Player: 1, Object: object, Value: 1, Positive: true},
		}}},
		{"done", wire.Request{Type: wire.ReqDone, Players: []int{0, 1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newFrameRig(t, rigConfig(t, ModeSync, 2))
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
			if pending := len(r.s.board.Pending()); pending != 0 {
				t.Errorf("%d posts buffered", pending)
			}
			if !r.s.active[0] || !r.s.active[1] || r.s.nActive != 2 {
				t.Errorf("players deregistered: active %v", r.s.active)
			}
		})
	}
}
