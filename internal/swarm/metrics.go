package swarm

import (
	"repro/internal/client"
	"repro/internal/obs"
)

// metrics is the swarm_* metric family: scheduler depth and latency plus
// the handles its transport records connection health into. All recording
// is nil-safe — a driver without a registry pays one branch per event.
type metrics struct {
	enabled bool

	players       *obs.Gauge // configured swarm size
	activePlayers *obs.Gauge // players still searching at round start

	rounds    *obs.Counter
	transport client.TransportMetrics

	roundSeconds   *obs.Histogram // wall time per swarm round
	barrierSeconds *obs.Histogram // wall time blocked in the round barrier
}

func newMetrics(r *obs.Registry) metrics {
	if r == nil {
		return metrics{}
	}
	return metrics{
		enabled:       true,
		players:       r.Gauge("swarm_players", "players driven by the swarm scheduler"),
		activePlayers: r.Gauge("swarm_active_players", "players still searching at round start"),
		rounds:        r.Counter("swarm_rounds_total", "swarm rounds completed"),
		transport: client.TransportMetrics{
			Frames:     r.Counter("swarm_frames_sent_total", "request frames sent by the swarm driver"),
			Dials:      r.Counter("swarm_dials_total", "transport dials (including reconnects)"),
			Reconnects: r.Counter("swarm_reconnects_total", "session resumes after a transport drop"),
			Retries:    r.Counter("swarm_retries_total", "frame retries after transport failures"),
			BackoffSeconds: r.Gauge("swarm_backoff_seconds_total",
				"total time spent sleeping in retry backoff"),
			Inflight: r.Histogram("swarm_inflight_frames",
				"pipelined frames outstanding when a response arrived",
				[]float64{1, 2, 4, 8, 16, 32}),
		},
		roundSeconds: r.Histogram("swarm_round_seconds",
			"wall time per swarm round",
			[]float64{0.001, 0.01, 0.1, 1, 10}),
		barrierSeconds: r.Histogram("swarm_barrier_wait_seconds",
			"wall time blocked in the round barrier",
			[]float64{0.001, 0.01, 0.1, 1, 10}),
	}
}
