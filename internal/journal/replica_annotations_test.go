package journal

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/billboard"
)

// TestEndRoundQuorumAnnotation pins the replicated round marker: the
// Term/Quorum annotation survives the wire format, and plain EndRound
// markers stay unannotated (zero values), so single-coordinator journals
// are byte-compatible consumers of the same reader.
func TestEndRoundQuorumAnnotation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.AppendFrom(1, 1, billboard.Post{Player: 1, Object: 2, Value: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := w.EndRoundQuorum(7, 2); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendFrom(2, 1, billboard.Post{Player: 0, Object: 3, Value: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.EndRound(); err != nil {
		t.Fatal(err)
	}

	var markers []Record
	if err := ReplayRecords(bytes.NewReader(buf.Bytes()), func(r Record) error {
		if r.Kind == RecordEndRound {
			markers = append(markers, r)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(markers) != 2 {
		t.Fatalf("got %d round markers, want 2", len(markers))
	}
	if markers[0].Term != 7 || markers[0].Quorum != 2 {
		t.Fatalf("quorum marker = term %d quorum %d, want 7/2", markers[0].Term, markers[0].Quorum)
	}
	if markers[1].Term != 0 || markers[1].Quorum != 0 {
		t.Fatalf("plain marker carries annotation: term %d quorum %d", markers[1].Term, markers[1].Quorum)
	}
}

// TestStoreRotateNil pins the snapshot-less rotation used by follower
// resync: Rotate(nil) truncates the segment to an empty base with no
// snapshot, and the store keeps accepting appends afterwards.
func TestStoreRotateNil(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Write([]byte("stale bytes from a dead leadership")); err != nil {
		t.Fatal(err)
	}
	if err := st.Rotate(nil); err != nil {
		t.Fatal(err)
	}
	if snap := st.Snapshot(); len(snap) != 0 {
		t.Fatalf("snapshot after Rotate(nil) = %d bytes, want none", len(snap))
	}
	if tail, err := io.ReadAll(st.Tail()); err != nil || len(tail) != 0 {
		t.Fatalf("tail after Rotate(nil) = %d bytes (%v), want empty", len(tail), err)
	}
	if _, err := st.Write([]byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// The truncation is durable: a reopen sees only the post-rotation bytes.
	st2, err := OpenStore(dir, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if snap := st2.Snapshot(); len(snap) != 0 {
		t.Fatalf("reopened snapshot = %d bytes, want none", len(snap))
	}
	tail, err := io.ReadAll(st2.Tail())
	if err != nil || string(tail) != "fresh" {
		t.Fatalf("reopened tail = %q (%v), want \"fresh\"", tail, err)
	}
}
