// Package obs is the repository's zero-dependency observability layer: a
// metrics registry (counters, gauges, fixed-bucket histograms) plus a
// structured JSONL trace writer.
//
// Design constraints, in order:
//
//   - Hot-path neutral. Metric handles are plain structs around atomics;
//     recording is one atomic op. Every handle is nil-safe — a nil *Counter
//     (what a nil *Registry hands out) makes recording a single predictable
//     branch, so instrumented code needs no "is observability on?" plumbing.
//   - Allocation-free recording. Handles are resolved once at setup
//     (Registry.Counter and friends are registration, not lookup);
//     Inc/Add/Set/Observe never allocate.
//   - Zero dependencies. Exposition is the Prometheus text format written
//     by hand (prometheus.go); no client library is vendored or imported.
//
// Metric names follow Prometheus conventions (snake_case, unit-suffixed,
// `_total` for counters). A name may carry a literal label set, e.g.
// `server_requests_total{type="probe-batch"}`; the registry treats the full
// string as the metric identity and the exposition writer groups HELP/TYPE
// lines by the family name before the brace.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds named metrics. The zero value is not usable; construct
// with NewRegistry. A nil *Registry is valid everywhere and hands out nil
// handles, so "no observability" costs one nil check per record.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*entry
}

// entry is one registered metric.
type entry struct {
	kind string // "counter", "gauge", or "histogram"
	help string
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*entry)}
}

// Counter registers (or re-resolves) a monotonically increasing counter.
// Registration is idempotent: the same name always returns the same handle,
// so independent components sharing a registry share the series. A nil
// registry returns a nil (no-op) handle. Registering a name that already
// holds a different metric kind panics — that is a programming error, not
// a runtime condition.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.metrics[name]; ok {
		r.mustKind(name, e, "counter")
		return e.c
	}
	c := &Counter{}
	r.metrics[name] = &entry{kind: "counter", help: help, c: c}
	return c
}

// Gauge registers (or re-resolves) a gauge: a value that can go up and
// down. Same identity and nil-registry rules as Counter.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.metrics[name]; ok {
		r.mustKind(name, e, "gauge")
		return e.g
	}
	g := &Gauge{}
	r.metrics[name] = &entry{kind: "gauge", help: help, g: g}
	return g
}

// Histogram registers (or re-resolves) a fixed-bucket histogram. Buckets
// are upper bounds in increasing order; an implicit +Inf bucket is always
// appended. A nil or empty bucket list uses DefBuckets. On re-resolution
// the original buckets win (the handle is shared, so they must agree).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.metrics[name]; ok {
		r.mustKind(name, e, "histogram")
		return e.h
	}
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	bounds := append([]float64(nil), buckets...)
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not strictly increasing", name))
		}
	}
	h := &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	r.metrics[name] = &entry{kind: "histogram", help: help, h: h}
	return h
}

func (r *Registry) mustKind(name string, e *entry, want string) {
	if e.kind != want {
		panic(fmt.Sprintf("obs: metric %q already registered as %s, requested %s", name, e.kind, want))
	}
}

// Snapshot returns every registered series as name → value: counters and
// gauges directly, histograms as three derived series (name_count,
// name_sum, and nothing per-bucket — bucket detail is exposition-only).
// Intended for tests and programmatic reads, not for scraping.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.metrics))
	for name, e := range r.metrics {
		switch e.kind {
		case "counter":
			out[name] = float64(e.c.Value())
		case "gauge":
			out[name] = e.g.Value()
		case "histogram":
			out[name+"_count"] = float64(e.h.Count())
			out[name+"_sum"] = e.h.Sum()
		}
	}
	return out
}

// sortedNames returns the registered metric names sorted so that members
// of one family (same name up to the label brace) are adjacent.
func (r *Registry) sortedNames() []string {
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// DefBuckets is the default histogram bucketing: exponential from 100µs to
// ~100s, wide enough for both RPC latencies and barrier waits.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100,
}

// Counter is a monotonically increasing integer metric. All methods are
// safe for concurrent use and safe on a nil receiver (no-ops), so
// instrumented code never branches on whether observability is enabled.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n must be >= 0 to keep the counter monotone; this is not
// checked on the hot path).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that can move in both directions. Safe for
// concurrent use; nil receivers no-op.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds delta (CAS loop; gauges are not hot-path metrics).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram. Observe is one linear scan over
// the (small, fixed) bucket list plus two atomic ops; no allocation.
// Nil receivers no-op.
type Histogram struct {
	bounds []float64      // upper bounds, increasing; +Inf implicit at the end
	counts []atomic.Int64 // len(bounds)+1; counts[i] = observations in bucket i (non-cumulative)
	sum    Gauge          // sum of observed values
	n      atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// ObserveSince records the elapsed wall time since start, in seconds.
func (h *Histogram) ObserveSince(start time.Time) {
	if h != nil {
		h.Observe(time.Since(start).Seconds())
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}
