package journal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/billboard"
)

// collect replays every record in the store's tail.
func collect(t *testing.T, s *Store) []Record {
	t.Helper()
	var recs []Record
	if err := ReplayRecords(s.Tail(), func(r Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatalf("replay tail: %v", err)
	}
	return recs
}

// TestStoreAppendReopen writes write-ahead records through a store, closes
// it, and reopens: the tail must replay every frame with its session
// attribution and round numbering intact.
func TestStoreAppendReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, SyncCommit)
	if err != nil {
		t.Fatal(err)
	}
	w := s.Writer()
	if err := w.Probe(7, 1, 0, 3); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendFrom(7, 2, billboard.Post{Player: 0, Object: 3, Value: 1, Positive: true}); err != nil {
		t.Fatal(err)
	}
	if err := w.Barrier(7, 2, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.EndRound(); err != nil {
		t.Fatal(err)
	}
	if err := w.Done(7, 3, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir, SyncCommit)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Snapshot() != nil {
		t.Fatal("fresh store grew a snapshot")
	}
	recs := collect(t, s2)
	wantKinds := []RecordKind{RecordProbe, RecordPost, RecordBarrier, RecordEndRound, RecordDone}
	if len(recs) != len(wantKinds) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(wantKinds))
	}
	for i, k := range wantKinds {
		if recs[i].Kind != k {
			t.Fatalf("record %d kind = %d, want %d", i, recs[i].Kind, k)
		}
	}
	if recs[0].Session != 7 || recs[0].Seq != 1 || recs[0].Object != 3 {
		t.Fatalf("probe record = %+v", recs[0])
	}
	if recs[1].Post.Object != 3 || !recs[1].Post.Positive {
		t.Fatalf("post record = %+v", recs[1])
	}
	// Round numbering: records before the marker are round 0, after it 1.
	if recs[2].Round != 0 || recs[4].Round != 1 {
		t.Fatalf("rounds = %d, %d; want 0, 1", recs[2].Round, recs[4].Round)
	}
}

// TestStoreRotate pins the segment lifecycle: Rotate installs the snapshot,
// starts an empty wal, deletes the old pair, and the same Writer keeps
// appending into the new segment. Reopen serves the new snapshot + tail.
func TestStoreRotate(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	w := s.Writer()
	if err := w.Probe(1, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	snap := []byte("state-after-round-3")
	if err := s.Rotate(snap); err != nil {
		t.Fatal(err)
	}
	if string(s.Snapshot()) != string(snap) {
		t.Fatalf("snapshot = %q", s.Snapshot())
	}
	if recs := collect(t, s); len(recs) != 0 {
		t.Fatalf("rotated wal still has %d records", len(recs))
	}
	// The pre-rotation pair is gone; only segment 1 remains.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("dir after rotate = %v, want exactly snap+wal of segment 1", names)
	}
	// The original Writer survives the rotation.
	if err := w.Probe(1, 2, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if string(s2.Snapshot()) != string(snap) {
		t.Fatalf("reopened snapshot = %q", s2.Snapshot())
	}
	recs := collect(t, s2)
	if len(recs) != 1 || recs[0].Kind != RecordProbe || recs[0].Seq != 2 {
		t.Fatalf("reopened tail = %+v", recs)
	}
}

// TestStoreSweepsStaleSegments simulates a crash between "new segment
// ready" and "old segment deleted": both segments on disk. Reopen must pick
// the newest and sweep the orphans.
func TestStoreSweepsStaleSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Writer().Probe(1, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Hand-plant the next segment as a crashed rotation would leave it.
	if err := os.WriteFile(filepath.Join(dir, "snap-00000001.bin"), []byte("newer"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal-00000001.log"), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if string(s2.Snapshot()) != "newer" {
		t.Fatalf("picked snapshot %q, want the newest segment", s2.Snapshot())
	}
	if recs := collect(t, s2); len(recs) != 0 {
		t.Fatalf("newest tail has %d records, want 0", len(recs))
	}
	if _, err := os.Stat(filepath.Join(dir, "wal-00000000.log")); !os.IsNotExist(err) {
		t.Fatal("stale segment 0 wal survived the sweep")
	}
}

// TestStoreClosed: writes and rotations after Close fail loudly instead of
// appending to a closed file descriptor.
func TestStoreClosed(t *testing.T) {
	s, err := OpenStore(t.TempDir(), SyncCommit)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Writer().Probe(1, 1, 0, 0); err == nil {
		t.Fatal("write to closed store succeeded")
	}
	if err := s.Rotate([]byte("x")); err == nil {
		t.Fatal("rotate on closed store succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, p := range []SyncPolicy{SyncCommit, SyncNone, SyncAlways} {
		got, err := ParseSyncPolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("round-trip %v: got %v, %v", p, got, err)
		}
	}
	if _, err := ParseSyncPolicy("eventually"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

// TestStoreTornTail: a partial final frame on disk reports ErrTruncated
// from replay with every complete frame delivered — the property OpenStore
// relies on to recover from a mid-write crash.
func TestStoreTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Writer().Probe(3, 1, 0, 5); err != nil {
		t.Fatal(err)
	}
	s.Close()
	wal := filepath.Join(dir, "wal-00000000.log")
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A frame header promising more bytes than follow.
	if _, err := f.Write([]byte{0x40, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := OpenStore(dir, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	var recs []Record
	rerr := ReplayRecords(s2.Tail(), func(r Record) error {
		recs = append(recs, r)
		return nil
	})
	if !errors.Is(rerr, ErrTruncated) {
		t.Fatalf("torn tail replay err = %v, want ErrTruncated", rerr)
	}
	if len(recs) != 1 || recs[0].Kind != RecordProbe {
		t.Fatalf("complete prefix = %+v", recs)
	}
}
