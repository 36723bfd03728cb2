package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "swarm.run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "swarm.round", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "swarm.round", Start: 20, End: 50},  // overlaps its sibling: counted once
		{ID: 4, Parent: 1, Name: "swarm.round", Start: 90, End: 120}, // only [90,100] lies inside the parent
		{ID: 5, Parent: 3, Name: "inner", Start: 25, End: 35},
		{ID: 6, Name: "setup", Start: 200, End: 260},
	}
	self := selfTimes(spans)
	want := map[int]float64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10, 6: 60}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time = %v, want %v", id, self[id], w)
		}
	}
}

func TestSpanRecorder(t *testing.T) {
	var nilRec *spanRecorder
	if id := nilRec.begin("setup", 0, 1); id != 0 {
		t.Fatalf("nil recorder returned span id %d", id)
	}
	nilRec.end(0)

	rec := newSpanRecorder()
	root := rec.begin("setup", 0, 7)
	child := rec.begin("setup.tokens", root, 7)
	rec.end(child)
	rec.end(root)
	t0 := time.Now()
	rec.record("swarm.run", 0, 7, t0, t0.Add(time.Millisecond))

	var buf bytes.Buffer
	if err := rec.writeJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var got []span
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		got = append(got, s)
	}
	if len(got) != 3 {
		t.Fatalf("wrote %d spans, want 3", len(got))
	}
	if got[1].Parent != got[0].ID || got[1].Search != 7 || got[1].Name != "setup.tokens" {
		t.Errorf("child span = %+v, want parent %d in search 7", got[1], got[0].ID)
	}
	if got[1].Start < got[0].Start || got[1].End > got[0].End {
		t.Errorf("child %+v not inside parent %+v", got[1], got[0])
	}
	if d := got[2].End - got[2].Start; d != 1000 {
		t.Errorf("recorded span lasts %vµs, want 1000", d)
	}
}
