package journal

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Store manages a persistence directory holding one snapshot plus the
// write-ahead log written after it — the durable form of the compaction
// contract (snapshot + journal tail = exact state). Files are paired by
// segment number:
//
//	snap-%08d.bin   opaque snapshot bytes (absent for segment 0)
//	wal-%08d.log    journal frames appended after that snapshot
//
// Rotate writes the next segment's snapshot (tmp + fsync + rename, so a
// crash mid-rotation leaves the previous segment intact), starts a fresh
// wal, and deletes the old pair. OpenStore picks the newest complete
// segment, so recovery always replays the shortest snapshot+tail that
// reproduces the state.
//
// Store methods are not safe for concurrent use with each other; the
// billboard server serializes them under its own lock. The Writer returned
// by Writer() targets the store itself, so it survives rotation.
type Store struct {
	dir string

	mu     sync.Mutex
	seg    uint64
	f      *os.File
	w      *Writer
	snap   []byte
	tail   []byte
	mirror func(p []byte)
}

const (
	snapPrefix = "snap-"
	walPrefix  = "wal-"
	segFmt     = "%08d"
)

// OpenStore opens (creating if needed) a persistence directory and loads
// its newest segment: the snapshot bytes (nil when the segment has none)
// and the wal tail, both served from memory via Snapshot and Tail. The
// wal file is reopened for appending, and every write holding a round
// marker or rollback is fsynced (Writer.SetSync).
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: store: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: store: %w", err)
	}
	var segs []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, walPrefix) || !strings.HasSuffix(name, ".log") {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, walPrefix), ".log"), 10, 64)
		if err != nil {
			continue
		}
		segs = append(segs, n)
	}
	s := &Store{dir: dir}
	if len(segs) == 0 {
		if err := s.openSegment(0, true); err != nil {
			return nil, err
		}
		return s, nil
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	seg := segs[len(segs)-1]
	if snap, err := os.ReadFile(s.snapPath(seg)); err == nil {
		s.snap = snap
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("journal: store: %w", err)
	}
	tail, err := os.ReadFile(s.walPath(seg))
	if err != nil {
		return nil, fmt.Errorf("journal: store: %w", err)
	}
	s.tail = tail
	if err := s.openSegment(seg, false); err != nil {
		return nil, err
	}
	// Stale older segments (a crash between "new segment ready" and "old
	// segment deleted") are swept here; the newest segment is authoritative.
	for _, old := range segs[:len(segs)-1] {
		os.Remove(s.walPath(old))
		os.Remove(s.snapPath(old))
	}
	return s, nil
}

func (s *Store) snapPath(seg uint64) string {
	return filepath.Join(s.dir, snapPrefix+fmt.Sprintf(segFmt, seg)+".bin")
}

func (s *Store) walPath(seg uint64) string {
	return filepath.Join(s.dir, walPrefix+fmt.Sprintf(segFmt, seg)+".log")
}

// openSegment opens seg's wal for appending (creating it when fresh) and
// rebinds the store's Writer to it.
func (s *Store) openSegment(seg uint64, create bool) error {
	flags := os.O_WRONLY | os.O_APPEND
	if create {
		flags |= os.O_CREATE
	}
	f, err := os.OpenFile(s.walPath(seg), flags, 0o644)
	if err != nil {
		return fmt.Errorf("journal: store: %w", err)
	}
	s.seg, s.f = seg, f
	if s.w == nil {
		s.w = NewWriter(s)
		s.w.SetSync(s.syncFile)
	}
	return nil
}

// Write appends to the current wal file (io.Writer for the store's
// Writer; rebinding on rotation happens under mu).
func (s *Store) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return 0, fmt.Errorf("journal: store: closed")
	}
	n, err := s.f.Write(p)
	if err == nil && s.mirror != nil {
		s.mirror(p)
	}
	return n, err
}

// SetMirror installs a tee invoked with every byte slice successfully
// appended to the wal, under the store's lock and in append order — the
// hook a replicated coordinator uses to stream its journal to followers.
// The callback must not call back into the store. A nil fn uninstalls it.
func (s *Store) SetMirror(fn func(p []byte)) {
	s.mu.Lock()
	s.mirror = fn
	s.mu.Unlock()
}

// Sync flushes the current wal file to stable storage whatever the bytes
// hold — followers call it after applying replicated bytes so an
// acknowledged record is durable before the ack leaves the machine.
func (s *Store) Sync() error {
	return s.syncFile()
}

func (s *Store) syncFile() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	return s.f.Sync()
}

// Snapshot returns the newest segment's snapshot bytes as loaded at
// OpenStore (nil when the run started without one).
func (s *Store) Snapshot() []byte { return s.snap }

// Tail returns a reader over the wal frames written after the snapshot,
// as loaded at OpenStore.
func (s *Store) Tail() io.Reader { return bytes.NewReader(s.tail) }

// Truncate cuts the wal loaded at OpenStore back to its first n bytes, and
// Tail with it — a recovering server's cut of a torn final frame (the
// Complete offset of a *TruncatedError), made before anything is appended
// so that later records do not land behind the torn bytes. Once the wal
// has grown past what was loaded, Truncate refuses.
func (s *Store) Truncate(n int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return fmt.Errorf("journal: store: closed")
	}
	fi, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("journal: store: truncate: %w", err)
	}
	if fi.Size() != int64(len(s.tail)) || n < 0 || n > fi.Size() {
		return fmt.Errorf("journal: store: truncate to %d bytes: the wal holds %d, %d loaded", n, fi.Size(), len(s.tail))
	}
	if err := s.f.Truncate(n); err != nil {
		return fmt.Errorf("journal: store: truncate: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("journal: store: truncate: %w", err)
	}
	s.tail = s.tail[:n]
	return nil
}

// Writer returns the store's journal writer. It stays valid across
// Rotate — frames always land in the current segment's wal.
func (s *Store) Writer() *Writer { return s.w }

// Dir returns the persistence directory.
func (s *Store) Dir() string { return s.dir }

// Rotate begins a new segment whose snapshot is the given bytes: the
// snapshot is written tmp+fsync+rename, a fresh wal starts, and the old
// segment is deleted. A nil snapshot starts a snapshot-less segment (no
// snap file) — the truncate-to-empty reset a replication resync uses. On
// error the store keeps appending to the current segment — rotation is an
// optimization (bounded replay), never a correctness requirement.
func (s *Store) Rotate(snapshot []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return fmt.Errorf("journal: store: closed")
	}
	next := s.seg + 1
	if snapshot != nil {
		tmp := s.snapPath(next) + ".tmp"
		f, err := os.Create(tmp)
		if err != nil {
			return fmt.Errorf("journal: store: rotate: %w", err)
		}
		if _, err = f.Write(snapshot); err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(tmp, s.snapPath(next))
		}
		if err != nil {
			os.Remove(tmp)
			return fmt.Errorf("journal: store: rotate: %w", err)
		}
	}
	nf, err := os.OpenFile(s.walPath(next), os.O_WRONLY|os.O_APPEND|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		// The next snapshot exists but its wal does not; OpenStore would
		// still pick the old segment (wal presence defines a segment), so
		// clean up and keep writing where we were.
		os.Remove(s.snapPath(next))
		return fmt.Errorf("journal: store: rotate: %w", err)
	}
	old, oldSeg := s.f, s.seg
	old.Sync()
	old.Close()
	s.seg, s.f = next, nf
	s.snap, s.tail = snapshot, nil
	os.Remove(s.walPath(oldSeg))
	os.Remove(s.snapPath(oldSeg))
	return nil
}

// Close syncs and closes the current wal. Further writes fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Sync()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}
