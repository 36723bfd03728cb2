package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"time"
)

// span is one timed interval recorded from the benchmark's side of a layer
// boundary. Times are microseconds since the recorder was created; Parent 0
// marks a root span; every span of one search shares Search.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Search int     `json:"search"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// spanRecorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced searches call it unconditionally.
type spanRecorder struct {
	t0    time.Time
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

func (r *spanRecorder) at(t time.Time) float64 {
	return float64(t.Sub(r.t0).Nanoseconds()) / 1e3
}

// begin opens a span now and returns its id (0 on a nil recorder).
func (r *spanRecorder) begin(name string, parent, search int) int {
	if r == nil {
		return 0
	}
	now := r.at(time.Now())
	return r.add(name, parent, search, now, now)
}

// end closes span id now.
func (r *spanRecorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].End = r.at(time.Now())
}

// record adds a finished span with explicit bounds.
func (r *spanRecorder) record(name string, parent, search int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	return r.add(name, parent, search, r.at(start), r.at(end))
}

func (r *spanRecorder) add(name string, parent, search int, start, end float64) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Search: search, Name: name, Start: start, End: end})
	return id
}

// writeJSONL writes one span per line.
func (r *spanRecorder) writeJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// selfTimes returns each span's self time in microseconds: its duration
// minus the part of its interval that its children cover (overlapping
// children count once; a child's part outside the parent counts not at all).
func selfTimes(spans []span) map[int]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := 0.0, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}
