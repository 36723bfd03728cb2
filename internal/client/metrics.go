package client

import (
	"io"

	"repro/internal/obs"
)

// newClientMetrics registers the client_* metric family in reg, as the
// handles a client's transport records into. Several clients (one per
// player goroutine) typically share one registry; the counters then
// aggregate across the whole local player fleet. A nil reg returns no
// handles: every recording is then a single-branch no-op, so
// fault-tolerance bookkeeping costs nothing when observability is off.
func newClientMetrics(reg *obs.Registry) TransportMetrics {
	if reg == nil {
		return TransportMetrics{}
	}
	return TransportMetrics{
		Dials:          reg.Counter("client_dials_total", "transport dial attempts"),
		Reconnects:     reg.Counter("client_reconnects_total", "dials that resumed an established session"),
		Retries:        reg.Counter("client_retries_total", "request attempts beyond the first"),
		BackoffSeconds: reg.Gauge("client_backoff_seconds_total", "cumulative time slept in retry backoff"),
		Frames:         reg.Counter("client_frames_sent_total", "request frames written"),
		BytesSent:      reg.Counter("client_bytes_sent_total", "bytes written to the server"),
	}
}

// countingWriter attributes every byte written to a byte counter
// (client_bytes_sent_total). Installed between the encoder and the
// connection only when the transport has one.
type countingWriter struct {
	w     io.Writer
	bytes *obs.Counter
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.bytes.Add(int64(n))
	return n, err
}
