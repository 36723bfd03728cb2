package journal

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/billboard"
)

// FuzzReplay feeds arbitrary bytes to the journal reader: it must never
// panic, must classify any non-journal input as clean EOF (empty) or
// ErrTruncated, and must hand back only well-formed records — known kinds,
// with Round counting the markers delivered before each one.
func FuzzReplay(f *testing.F) {
	// Seed with a valid journal, a torn one, and junk.
	var valid bytes.Buffer
	w := NewWriter(&valid)
	_ = w.AppendFrom(1, 1, billboard.Post{Player: 0, Object: 1, Value: 1, Positive: true})
	_ = w.EndRound()
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()-2])
	f.Add([]byte("garbage"))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // huge uvarint

	f.Fuzz(func(t *testing.T, data []byte) {
		markers := 0
		err := ReplayRecords(bytes.NewReader(data), func(r Record) error {
			if r.Kind < RecordPost || r.Kind > RecordEpoch {
				t.Fatalf("record of unknown kind %d delivered", r.Kind)
			}
			if r.Round != markers {
				t.Fatalf("record round %d after %d markers", r.Round, markers)
			}
			if r.Kind == RecordEndRound {
				markers++
			}
			return nil
		})
		if err != nil && !errors.Is(err, ErrTruncated) {
			t.Fatalf("unexpected error class: %v", err)
		}
	})
}

// FuzzWriteReplayRoundTrip generates structured journals from fuzz input
// and checks the round-trip invariant: the record sequence the Writer
// wrote, ReplayRecords reads back exactly.
func FuzzWriteReplayRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 4})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, script []byte) {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		var want []Record
		round := 0
		for i, b := range script {
			sess, seq := uint64(b%3+1), uint64(i+1)
			var err error
			switch b % 5 {
			case 0:
				err = w.EndRound()
				want = append(want, Record{Kind: RecordEndRound, Round: round})
				round++
			case 1, 2:
				p := billboard.Post{
					Player:   int(b % 8),
					Object:   int(b % 16),
					Value:    float64(b) / 255,
					Positive: b%2 == 0,
				}
				err = w.AppendFrom(sess, seq, p)
				want = append(want, Record{Kind: RecordPost, Post: p, Session: sess, Seq: seq, Round: round})
			case 3:
				err = w.Probe(sess, seq, int(b%8), int(b%16))
				want = append(want, Record{Kind: RecordProbe, Session: sess, Seq: seq,
					Player: int(b % 8), Object: int(b % 16), Round: round})
			case 4:
				err = w.Rollback()
				want = append(want, Record{Kind: RecordRollback, Round: round})
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		var got []Record
		if err := ReplayRecords(&buf, func(r Record) error {
			got = append(got, r)
			return nil
		}); err != nil {
			t.Fatalf("replay of a writer-produced journal failed: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("round trip lost entries: %d records, wrote %d", len(got), len(want))
		}
		for i := range want {
			if got[i].Kind != want[i].Kind || got[i].Post != want[i].Post ||
				got[i].Session != want[i].Session || got[i].Seq != want[i].Seq ||
				got[i].Player != want[i].Player || got[i].Object != want[i].Object ||
				got[i].Round != want[i].Round {
				t.Fatalf("record %d = %+v, wrote %+v", i, got[i], want[i])
			}
		}
	})
}
