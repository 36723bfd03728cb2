package server

import (
	"net"
	"time"

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

	shardRestarts *obs.Counter

	commitSeconds *obs.Histogram
	commitPhase   [commitPhases]*obs.Histogram
}

// Commit phases of the sharded round pipeline, in execution order: freeze
// (check that every lane is up), admit (per-lane merge + global vote admission),
// journal (coordinator commit-point marker), seal (parallel per-lane feed +
// lane marker + board EndRound).
const (
	phaseFreeze = iota
	phaseAdmit
	phaseJournal
	phaseSeal
	commitPhases
)

var commitPhaseNames = [commitPhases]string{"freeze", "admit", "journal", "seal"}

// commitBuckets resolves the commit-phase histograms: the phases of an
// in-memory commit sit well under obs.DefBuckets' 100µs floor, so these
// start at 1µs.
var commitBuckets = []float64{
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2, 1e-1,
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

		shardRestarts: reg.Counter("server_shard_restarts_total", "shard lanes rebuilt by RestartShard"),

		commitSeconds: reg.Histogram("server_commit_seconds",
			"sharded round commit latency, all phases", commitBuckets),
	}
	for i, name := range commitPhaseNames {
		m.commitPhase[i] = reg.Histogram(
			`server_commit_phase_seconds{phase="`+name+`"}`,
			"sharded round commit latency by pipeline phase", commitBuckets)
	}
	for t := wire.ReqHello; t <= wire.ReqEpoch; t++ {
		m.requests[t] = reg.Counter(
			`server_requests_total{type="`+t.String()+`"}`,
			"decoded client frames by request type")
	}
	return m
}

// phaseTick observes the time since prev in a commit-phase histogram and
// returns the new reference instant; a disabled zero value skips the clock
// read entirely and returns prev unchanged.
func (m *serverMetrics) phaseTick(phase int, prev time.Time) time.Time {
	if !m.enabled {
		return prev
	}
	now := time.Now()
	m.commitPhase[phase].Observe(now.Sub(prev).Seconds())
	return now
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
