package journal

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"testing"

	"repro/internal/billboard"
)

// FuzzReplay feeds arbitrary bytes to the journal reader: it must never
// panic, must end cleanly, on a torn final frame (a *TruncatedError naming
// the end of the frames it delivered) or on a corrupt frame, and must hand
// back only well-formed records — known kinds, with Round counting the
// markers delivered before each one, each re-encoding to exactly the bytes
// it was read from.
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
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}) // no uvarint ends
	var every bytes.Buffer
	w = NewWriter(&every)
	for _, c := range everyRecordKind() {
		_ = c.write(w)
	}
	f.Add(every.Bytes())
	for _, path := range []string{gobWal, indexAdmitsWal} {
		if old, err := os.ReadFile(path); err == nil {
			f.Add(old)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		markers := 0
		var off int64 // end of the frames delivered so far
		err := ReplayRecords(bytes.NewReader(data), func(r Record) error {
			if r.Kind < RecordPost || r.Kind > RecordSwarmOpen {
				t.Fatalf("record of unknown kind %d delivered", r.Kind)
			}
			if r.Round != markers {
				t.Fatalf("record round %d after %d markers", r.Round, markers)
			}
			if r.Kind == RecordEndRound {
				markers++
			}
			frame := appendFrame(nil, &r)
			if !bytes.HasPrefix(data[off:], frame) {
				t.Fatalf("record %+v re-encodes to %x, read from %x", r, frame, data[off:min(len(data), int(off)+len(frame))])
			}
			off += int64(len(frame))
			return nil
		})
		var torn *TruncatedError
		switch {
		case err == nil:
			if off != int64(len(data)) {
				t.Fatalf("clean end after %d of %d bytes", off, len(data))
			}
		case errors.As(err, &torn):
			if torn.Complete != off || off >= int64(len(data)) {
				t.Fatalf("torn tail at %d of %d bytes, delivered frames end at %d", torn.Complete, len(data), off)
			}
		case !errors.Is(err, ErrCorrupt):
			t.Fatalf("unexpected error class: %v", err)
		}
	})
}

// FuzzWriteReplayRoundTrip generates structured journals from fuzz input
// and checks the round-trip invariant: the record sequence the Writer
// wrote, ReplayRecords reads back exactly, and the records re-encode to
// exactly the journal's bytes.
func FuzzWriteReplayRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 4})
	f.Add([]byte{})
	f.Add([]byte{5, 6, 7, 1, 2, 0, 3, 7})
	f.Fuzz(func(t *testing.T, script []byte) {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		var want []Record
		round := 0
		for i, b := range script {
			sess, seq := uint64(b%3+1), uint64(i+1)
			var err error
			switch b % 8 {
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
			case 5:
				err = w.Done(sess, seq, int(b%8))
				want = append(want, Record{Kind: RecordDone, Session: sess, Seq: seq, Player: int(b % 8), Round: round})
			case 6:
				err = w.Barrier(sess, seq, int(b%8)-1)
				want = append(want, Record{Kind: RecordBarrier, Session: sess, Seq: seq, Player: int(b%8) - 1, Round: round})
			case 7:
				err = w.EndRound()
				want = append(want, Record{Kind: RecordEndRound, Round: round})
				round++
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		data := bytes.Clone(buf.Bytes())
		var got []Record
		var again []byte
		if err := ReplayRecords(&buf, func(r Record) error {
			got = append(got, r)
			again = appendFrame(again, &r)
			return nil
		}); err != nil {
			t.Fatalf("replay of a writer-produced journal failed: %v", err)
		}
		if !reflect.DeepEqual(got, want) && (len(got) != 0 || len(want) != 0) {
			t.Fatalf("replayed %+v, wrote %+v", got, want)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("records re-encode to %x, the journal holds %x", again, data)
		}
	})
}
