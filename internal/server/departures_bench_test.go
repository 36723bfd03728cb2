package server

import (
	"fmt"
	"testing"

	"repro/internal/wire"
)

// BenchmarkSwarmDepartures prices the pacing bookkeeping of a swarm's
// departures: each iteration registers one swarm session of 4k or 32k
// players, closes round 0 with one arrival, and departs every player in 8
// swarm-done batches. A
// departure must cost O(1), so ns/player stays flat from 4k to 32k in both
// modes. Server construction is outside the timer.
func BenchmarkSwarmDepartures(b *testing.B) {
	for _, mode := range []Mode{ModeSync, ModeEpoch} {
		for _, players := range []int{4 << 10, 32 << 10} {
			b.Run(fmt.Sprintf("%v-%dk", mode, players>>10), func(b *testing.B) {
				cfg := rigConfig(b, mode, players)
				const batches = 8
				done := make([][]int, batches)
				for p := 0; p < players; p++ {
					k := p * batches / players
					done[k] = append(done[k], p)
				}
				closeRound := wire.Request{Type: wire.ReqEpoch, Epoch: 1}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					r := newFrameRig(b, cfg)
					b.StartTimer()
					sess := r.joinSwarm(0, players)
					if resp := r.send(sess, closeRound); resp.Round != 1 {
						b.Fatalf("round 0 did not close: %+v", resp)
					}
					for _, batch := range done {
						r.send(sess, wire.Request{Type: wire.ReqSwarmDone, Players: batch})
					}
					b.StopTimer()
					r.s.Close()
					b.StartTimer()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(players), "ns/player")
			})
		}
	}
}
