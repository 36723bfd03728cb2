package journal

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/billboard"
)

func post(player, obj int, positive bool) billboard.Post {
	return billboard.Post{Player: player, Object: obj, Value: 1, Positive: positive}
}

// replayAll decodes every record of a journal, returning the records and
// the replay error.
func replayAll(data []byte) ([]Record, error) {
	var recs []Record
	err := ReplayRecords(bytes.NewReader(data), func(r Record) error {
		recs = append(recs, r)
		return nil
	})
	return recs, err
}

// TestRoundTripRebuild: every post written with AppendFrom comes back from
// ReplayRecords unchanged, attributed to its session and sequence number
// and tagged with the round its marker closed.
func TestRoundTripRebuild(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	type attributed struct {
		session, seq uint64
		post         billboard.Post
		round        int
	}
	want := []attributed{
		{1, 1, post(0, 3, true), 0},
		{2, 1, post(1, 3, true), 0},
		{3, 4, post(2, 5, true), 1},
		{4, 2, post(3, 1, false), 1}, // negative report
	}
	round := 0
	for _, a := range want {
		if a.round != round {
			if err := w.EndRound(); err != nil {
				t.Fatal(err)
			}
			round++
		}
		if err := w.AppendFrom(a.session, a.seq, a.post); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.EndRound(); err != nil {
		t.Fatal(err)
	}

	recs, err := replayAll(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var got []attributed
	markers := 0
	for _, r := range recs {
		switch r.Kind {
		case RecordPost:
			got = append(got, attributed{r.Session, r.Seq, r.Post, r.Round})
		case RecordEndRound:
			markers++
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed posts = %+v, want %+v", got, want)
	}
	if markers != 2 {
		t.Fatalf("replayed %d round markers, want 2", markers)
	}
}

func TestTruncatedStreamReportsButKeepsPrefix(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.AppendFrom(1, 1, post(0, 1, true)); err != nil {
		t.Fatal(err)
	}
	if err := w.EndRound(); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendFrom(2, 1, post(1, 2, true)); err != nil {
		t.Fatal(err)
	}
	if err := w.EndRound(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail mid-entry.
	torn := buf.Bytes()[:buf.Len()-3]

	recs, err := replayAll(torn)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("want ErrTruncated, got %v", err)
	}
	// The first round and the second post survive; the torn marker does not.
	if len(recs) != 3 || recs[0].Post != post(0, 1, true) ||
		recs[1].Kind != RecordEndRound || recs[2].Post != post(1, 2, true) {
		t.Fatalf("complete prefix = %+v", recs)
	}
}

func TestWriterFailsFast(t *testing.T) {
	w := NewWriter(failWriter{})
	if err := w.AppendFrom(1, 1, post(0, 0, true)); err == nil {
		t.Fatal("write error swallowed")
	}
	// Subsequent calls return the sticky error without panicking.
	if err := w.EndRound(); err == nil {
		t.Fatal("sticky error not returned")
	}
	if w.Err() == nil {
		t.Fatal("Err() lost the sticky error")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestReplayCallbackErrorsPropagate(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.AppendFrom(1, 1, post(0, 1, true)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := ReplayRecords(&buf, func(Record) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("callback error lost: %v", err)
	}
}

func TestAppendAcrossWriters(t *testing.T) {
	// Two separate Writers appending to the same buffer model a process
	// restart; one replay must read both segments (this is why frames are
	// self-contained rather than one gob stream).
	var buf bytes.Buffer
	w1 := NewWriter(&buf)
	if err := w1.AppendFrom(1, 1, post(0, 1, true)); err != nil {
		t.Fatal(err)
	}
	if err := w1.EndRound(); err != nil {
		t.Fatal(err)
	}
	w2 := NewWriter(&buf) // "restart"
	if err := w2.AppendFrom(2, 1, post(1, 2, true)); err != nil {
		t.Fatal(err)
	}
	if err := w2.EndRound(); err != nil {
		t.Fatal(err)
	}
	recs, err := replayAll(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 || recs[2].Post != post(1, 2, true) || recs[2].Round != 1 {
		t.Fatalf("append-across-restart lost state: %+v", recs)
	}
}

func TestEmptyJournal(t *testing.T) {
	recs, err := replayAll(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("empty journal replayed %d records", len(recs))
	}
}

// TestForceDoneEventsReplay: force-done decisions come back in order, each
// tagged with the round it was taken in — including one in a round whose
// marker never landed, which recovery must discard (the server-level
// counterpart is TestForceDoneSurvivesRecovery).
func TestForceDoneEventsReplay(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.AppendFrom(1, 1, post(0, 1, true)); err != nil {
		t.Fatal(err)
	}
	if err := w.ForceDone(2); err != nil {
		t.Fatal(err)
	}
	if err := w.EndRound(); err != nil {
		t.Fatal(err)
	}
	if err := w.ForceDone(3); err != nil {
		t.Fatal(err)
	}
	if err := w.EndRound(); err != nil {
		t.Fatal(err)
	}
	if err := w.ForceDone(1); err != nil {
		t.Fatal(err)
	}

	recs, err := replayAll(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	type event struct{ player, round int }
	var got []event
	for _, r := range recs {
		if r.Kind == RecordForceDone {
			got = append(got, event{r.Player, r.Round})
		}
	}
	want := []event{{2, 0}, {3, 1}, {1, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("force-done records = %v, want %v", got, want)
	}
}
