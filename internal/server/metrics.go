package server

import (
	"net"

	"repro/internal/obs"
	"repro/internal/wire"
)

// serverMetrics bundles the service's metric handles. When Config.Metrics
// is nil the struct stays zero-valued: every handle is nil and every
// recording call is a single-branch no-op (obs handles are nil-safe), so
// an uninstrumented server pays nothing beyond those branches.
type serverMetrics struct {
	enabled bool

	connections *obs.Counter
	requests    [wire.ReqEpoch + 1]*obs.Counter
	requestsBad *obs.Counter
	rpcSeconds  *obs.Histogram
	bytesIn     *obs.Counter
	bytesOut    *obs.Counter

	sessionsOpened  *obs.Counter
	sessionsResumed *obs.Counter
	sessionsExpired *obs.Counter
	dedupReplays    *obs.Counter

	barrierWait *obs.Histogram
	rounds      *obs.Counter
	forceDone   *obs.Counter

	epochSeals    *obs.Counter
	deadlineSeals *obs.Counter

	snapshots       *obs.Counter
	journalReplayed *obs.Counter
	replaySeconds   *obs.Histogram
}

// newServerMetrics registers the server_* metric family in reg. A nil reg
// returns the inert zero value.
func newServerMetrics(reg *obs.Registry) serverMetrics {
	if reg == nil {
		return serverMetrics{}
	}
	m := serverMetrics{
		enabled:     true,
		connections: reg.Counter("server_connections_total", "client connections accepted"),
		requestsBad: reg.Counter(`server_requests_total{type="unknown"}`, "decoded client frames by request type"),
		rpcSeconds:  reg.Histogram("server_request_seconds", "request handling latency (includes arrival waits)", nil),
		bytesIn:     reg.Counter("server_read_bytes_total", "bytes read from clients"),
		bytesOut:    reg.Counter("server_written_bytes_total", "bytes written to clients"),

		sessionsOpened:  reg.Counter("server_sessions_opened_total", "fresh sessions registered"),
		sessionsResumed: reg.Counter("server_sessions_resumed_total", "disconnected sessions resumed within grace"),
		sessionsExpired: reg.Counter("server_sessions_expired_total", "sessions ended by lease expiry or zero-grace disconnect"),
		dedupReplays:    reg.Counter("server_dedup_replays_total", "retransmitted requests answered from the dedup cache"),

		barrierWait: reg.Histogram("server_barrier_wait_seconds", "time an arrival waited for its round to commit", nil),
		rounds:      reg.Counter("server_rounds_total", "rounds committed"),
		forceDone:   reg.Counter("server_force_done_total", "players expelled by a sync-mode round deadline"),

		epochSeals:    reg.Counter("server_epoch_seals_total", "epochs sealed (epoch mode)"),
		deadlineSeals: reg.Counter("server_epoch_tick_seals_total", "epochs sealed by the round deadline without all stamps (epoch mode)"),

		snapshots:       reg.Counter("server_snapshots_total", "service snapshots taken at journal rotation"),
		journalReplayed: reg.Counter("server_journal_replayed_total", "journal records replayed at recovery"),
		replaySeconds:   reg.Histogram("server_journal_replay_seconds", "recovery replay latency (snapshot restore + journal tail)", nil),
	}
	for t := wire.ReqHello; t <= wire.ReqEpoch; t++ {
		m.requests[t] = reg.Counter(
			`server_requests_total{type="`+t.String()+`"}`,
			"decoded client frames by request type")
	}
	return m
}

// request returns the per-type frame counter (nil-safe for unknown types
// and for the disabled zero value).
func (m *serverMetrics) request(t wire.ReqType) *obs.Counter {
	if t >= wire.ReqHello && t <= wire.ReqEpoch {
		return m.requests[t]
	}
	return m.requestsBad
}

// countingConn wraps a connection so every byte moved is attributed to the
// server_read/written_bytes_total counters. Installed only when metrics
// are enabled, so the uninstrumented read path keeps its direct conn.
type countingConn struct {
	net.Conn
	in, out *obs.Counter
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}
