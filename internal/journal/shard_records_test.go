package journal

import (
	"bytes"
	"testing"
)

// TestAppendAtCarriesIndexAndSession pins the sharded write-ahead record:
// AppendAt journals a post with its session, sequence number, and the
// client-assigned post index, and ReplayRecords hands all three back — the
// order key a recovering shard lane re-sorts its pending tail by.
func TestAppendAtCarriesIndexAndSession(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.AppendAt(0xfeed, 7, 41, post(2, 5, true)); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendAt(0xfeed, 8, 42, post(2, 9, false)); err != nil {
		t.Fatal(err)
	}
	var recs []Record
	if err := ReplayRecords(&buf, func(r Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want 2", len(recs))
	}
	for i, want := range []struct {
		seq   uint64
		index int
		obj   int
	}{{7, 41, 5}, {8, 42, 9}} {
		r := recs[i]
		if r.Kind != RecordPost || r.Session != 0xfeed || r.Seq != want.seq ||
			r.Index != want.index || r.Post.Object != want.obj {
			t.Fatalf("record %d = %+v, want session 0xfeed seq %d index %d object %d",
				i, r, want.seq, want.index, want.obj)
		}
	}
}

// TestEndRoundAdmitsReplay pins the admission-carrying round marker: the
// (player, object) pairs the coordinator admitted travel on the EndRound
// record, so an independently replaying shard lane can apply exactly the
// committed admissions without re-deriving the global vote budget.
func TestEndRoundAdmitsReplay(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	admits := []Admit{{Player: 0, Object: 3}, {Player: 2, Object: 5}}
	if err := w.AppendFrom(1, 1, post(0, 3, true)); err != nil {
		t.Fatal(err)
	}
	if err := w.EndRoundAdmits(admits); err != nil {
		t.Fatal(err)
	}
	if err := w.EndRound(); err != nil { // plain marker: no admissions
		t.Fatal(err)
	}
	var markers [][]Admit
	if err := ReplayRecords(&buf, func(r Record) error {
		if r.Kind == RecordEndRound {
			markers = append(markers, r.Admits)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(markers) != 2 {
		t.Fatalf("replayed %d round markers, want 2", len(markers))
	}
	if len(markers[0]) != 2 || markers[0][0] != admits[0] || markers[0][1] != admits[1] {
		t.Fatalf("admits mangled: %+v", markers[0])
	}
	if len(markers[1]) != 0 {
		t.Fatalf("plain EndRound grew admissions: %+v", markers[1])
	}
}
