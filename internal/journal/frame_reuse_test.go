package journal

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/billboard"
)

// recordCase is one record written through the Writer API, paired with the
// record its frame must encode.
type recordCase struct {
	name  string
	write func(w *Writer) error
	want  Record
}

// everyRecordKind covers every record a Writer can write.
func everyRecordKind() []recordCase {
	p := billboard.Post{Player: 3, Object: 41, Value: 0.75, Positive: true}
	return []recordCase{
		{"post", func(w *Writer) error { return w.AppendFrom(7, 2, p) },
			Record{Kind: RecordPost, Post: p, Session: 7, Seq: 2}},
		{"probe", func(w *Writer) error { return w.Probe(7, 4, 3, 12) },
			Record{Kind: RecordProbe, Session: 7, Seq: 4, Player: 3, Object: 12}},
		{"done", func(w *Writer) error { return w.Done(7, 5, 3) },
			Record{Kind: RecordDone, Session: 7, Seq: 5, Player: 3}},
		{"barrier-swarm", func(w *Writer) error { return w.Barrier(9, 6, -1) },
			Record{Kind: RecordBarrier, Session: 9, Seq: 6, Player: -1}},
		{"swarm-open", func(w *Writer) error { return w.SwarmOpen(9, 16, 4096) },
			Record{Kind: RecordSwarmOpen, Session: 9, Player: 16, PlayerTo: 4096}},
		{"force-done", func(w *Writer) error { return w.ForceDone(4) },
			Record{Kind: RecordForceDone, Player: 4}},
		{"rollback", func(w *Writer) error { return w.Rollback() },
			Record{Kind: RecordRollback}},
		{"end-round", func(w *Writer) error { return w.EndRound() },
			Record{Kind: RecordEndRound}},
		{"end-round-quorum", func(w *Writer) error { return w.EndRoundQuorum(4, 2) },
			Record{Kind: RecordEndRound, Term: 4, Quorum: 2}},
	}
}

// TestWriterFramesSelfContained pins the Writer's framing: every record
// kind, written through one Writer, through two Writers on one stream (a
// restart), as one batch, and through a store across a rotation, must come
// out byte for byte as the concatenation of each record's own frame, and
// replay to the records written. Frames therefore stay self-contained: a
// wal appended to by a restarted process replays like one written in one go.
func TestWriterFramesSelfContained(t *testing.T) {
	cases := everyRecordKind()
	want := func(cs []recordCase) []byte {
		var out []byte
		for _, c := range cs {
			out = appendFrame(out, &c.want)
		}
		return out
	}
	writeAll := func(w *Writer, cs []recordCase) {
		t.Helper()
		for _, c := range cs {
			if err := c.write(w); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
	}
	replays := func(t *testing.T, data []byte, cs []recordCase) {
		t.Helper()
		recs, err := replayAll(data)
		if err != nil || len(recs) != len(cs) {
			t.Fatalf("replayed %d records (%v), wrote %d", len(recs), err, len(cs))
		}
		round := 0
		for i, c := range cs {
			w := c.want
			w.Round = round
			if !reflect.DeepEqual(recs[i], w) {
				t.Fatalf("%s replayed as %+v, want %+v", c.name, recs[i], w)
			}
			if w.Kind == RecordEndRound {
				round++
			}
		}
	}
	half := len(cases) / 2

	t.Run("one-writer", func(t *testing.T) {
		var buf bytes.Buffer
		writeAll(NewWriter(&buf), cases)
		if !bytes.Equal(buf.Bytes(), want(cases)) {
			t.Fatalf("frames diverge from the records' own frames:\ngot:  %x\nwant: %x", buf.Bytes(), want(cases))
		}
		replays(t, buf.Bytes(), cases)
	})
	t.Run("two-writers", func(t *testing.T) {
		var buf bytes.Buffer
		writeAll(NewWriter(&buf), cases[:half])
		writeAll(NewWriter(&buf), cases[half:])
		if !bytes.Equal(buf.Bytes(), want(cases)) {
			t.Fatal("a second writer on the same stream diverges from the records' own frames")
		}
		replays(t, buf.Bytes(), cases)
	})
	t.Run("batch", func(t *testing.T) {
		cw := &countingWriter{}
		w := NewWriter(cw)
		w.Begin()
		writeAll(w, cases)
		if cw.writes != 0 {
			t.Fatalf("%d writes before Flush", cw.writes)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if cw.writes != 1 {
			t.Fatalf("batch of %d records took %d writes, want 1", len(cases), cw.writes)
		}
		if !bytes.Equal(cw.buf.Bytes(), want(cases)) {
			t.Fatal("batched frames diverge from the records' own frames")
		}
	})
	t.Run("store-rotate", func(t *testing.T) {
		dir := t.TempDir()
		st, err := OpenStore(dir, SyncCommit)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		var mirrored []byte
		st.SetMirror(func(p []byte) { mirrored = append(mirrored, p...) })
		writeAll(st.Writer(), cases[:half])
		wal0, err := os.ReadFile(filepath.Join(dir, "wal-00000000.log"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wal0, want(cases[:half])) {
			t.Fatal("segment 0 diverges from the records' own frames")
		}
		if err := st.Rotate([]byte("snapshot")); err != nil {
			t.Fatal(err)
		}
		writeAll(st.Writer(), cases[half:])
		wal1, err := os.ReadFile(filepath.Join(dir, "wal-00000001.log"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wal1, want(cases[half:])) {
			t.Fatal("segment 1 diverges from the records' own frames")
		}
		if !bytes.Equal(mirrored, want(cases)) {
			t.Fatal("mirrored bytes diverge from the records' own frames")
		}
	})
}

// countingWriter records what reaches it and in how many Writes.
type countingWriter struct {
	buf    bytes.Buffer
	writes int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	return c.buf.Write(p)
}

// TestWriterBatchSyncsOnce: a batch is one write, so SyncAlways flushes the
// disk once for it, and SyncCommit only when it holds a round marker.
func TestWriterBatchSyncsOnce(t *testing.T) {
	for _, tc := range []struct {
		policy SyncPolicy
		marker bool
		want   int
	}{
		{SyncAlways, false, 1},
		{SyncCommit, false, 0},
		{SyncCommit, true, 1},
		{SyncNone, true, 0},
	} {
		synced := 0
		w := NewWriter(io.Discard)
		w.SetSync(func() error { synced++; return nil }, tc.policy)
		w.Begin()
		for i := 0; i < 4; i++ {
			if err := w.Probe(1, 1, i, i); err != nil {
				t.Fatal(err)
			}
		}
		if tc.marker {
			if err := w.EndRound(); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if synced != tc.want {
			t.Fatalf("policy %v, marker %v: synced %d times, want %d", tc.policy, tc.marker, synced, tc.want)
		}
	}
}

// BenchmarkWriterAppend prices one journaled post: encode its frame and
// write it (to io.Discard, so the figure is codec work, not I/O).
func BenchmarkWriterAppend(b *testing.B) {
	w := NewWriter(io.Discard)
	p := billboard.Post{Player: 3, Object: 41, Value: 0.75, Positive: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := w.AppendFrom(7, uint64(i), p); err != nil {
			b.Fatal(err)
		}
	}
}

// quorumTail is a wal tail shaped like one round of the benchmark's quorum
// workload: a 2048-probe batch and a 2048-post batch under one swarm
// session, each one request's write, then the round's replicated marker. It
// returns the bytes and the number of records.
func quorumTail(tb testing.TB) ([]byte, int) {
	tb.Helper()
	const batch, objects = 2048, 16384
	const session = 0x9e3779b97f4a7c15
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Begin()
	for i := 0; i < batch; i++ {
		_ = w.Probe(session, 7, i, i*7919%objects) // a batch's write error surfaces at Flush
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	w.Begin()
	for i := 0; i < batch; i++ {
		p := billboard.Post{Player: i, Object: i * 7919 % objects, Value: float64(i%5) / 4, Positive: i%64 == 0}
		_ = w.AppendFrom(session, 8, p)
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	if err := w.EndRoundQuorum(1, 2); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes(), 2*batch + 1
}

// BenchmarkReplayRecords prices recovery's decoding: one op replays a
// quorum-shaped tail (quorumTail) from memory, and ns/record divides the
// time by its records.
func BenchmarkReplayRecords(b *testing.B) {
	tail, n := quorumTail(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(tail)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got := 0
		err := ReplayRecords(bytes.NewReader(tail), func(Record) error {
			got++
			return nil
		})
		if err != nil || got != n {
			b.Fatalf("replayed %d of %d records: %v", got, n, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/record")
}
