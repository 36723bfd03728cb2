package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"os"
	"reflect"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/records.golden")

// gobWal holds two frames, a probe record and a round marker, as the
// gob-encoded journal of earlier builds wrote them.
const gobWal = "testdata/gob-frames.wal"

// indexAdmitsWal holds one frame of each record kind as the builds before
// this format wrote them: every frame also carried a post index and a
// count of admitted vote pairs (with the pairs), between Object and
// PlayerTo.
const indexAdmitsWal = "testdata/index-admits-frames.wal"

// termQuorumWal holds one frame of each record kind as the builds before
// this format wrote them (their records.golden): every frame also carried
// a round marker's replication term and quorum after PlayerTo.
const termQuorumWal = "testdata/term-quorum-frames.wal"

// TestRecordGolden pins the record format byte for byte: one frame of each
// record kind, written through one Writer, must equal
// testdata/records.golden and replay to the records written. A deliberate
// format change rewrites the golden with
// go test ./internal/journal -run TestRecordGolden -update.
func TestRecordGolden(t *testing.T) {
	const path = "testdata/records.golden"
	cases := everyRecordKind()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, c := range cases {
		if err := c.write(w); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -run TestRecordGolden -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatalf("encoded records differ from %s:\ngot  %x\nwant %x", path, buf.Bytes(), golden)
	}
	recs, err := replayAll(golden)
	if err != nil || len(recs) != len(cases) {
		t.Fatalf("%s replayed %d records (%v), want %d", path, len(recs), err, len(cases))
	}
	round := 0
	for i, c := range cases {
		want := c.want
		want.Round = round
		if !reflect.DeepEqual(recs[i], want) {
			t.Fatalf("%s: replayed %+v, want %+v", c.name, recs[i], want)
		}
		if want.Kind == RecordEndRound {
			round++
		}
	}
}

// fill sets every field under v to a distinct non-zero value (two entries
// per slice), alternating signs so zigzag varints of both signs and
// several widths are covered.
func fill(v reflect.Value, next *int64) {
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			fill(v.Field(i), next)
		}
		return
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := range s.Len() {
			fill(s.Index(i), next)
		}
		v.Set(s)
		return
	}
	*next++
	n := *next
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int:
		v.SetInt(n * 1_000_003 * (1 - 2*(n%2)))
	case reflect.Uint8:
		v.SetUint(uint64(n))
	case reflect.Uint64:
		v.SetUint(uint64(n) << 40)
	case reflect.Float64:
		v.SetFloat(float64(n) + 0.25)
	default:
		panic("fill: no value for a " + v.Kind().String() + " field")
	}
}

// TestRecordCoversEveryField: a record with every field set to a distinct
// non-zero value, and records with each field alone set, come back equal
// through Writer and ReplayRecords — a field added to Record without a
// codec entry fails here. Kind is the highest valid kind, and Round, which
// replay derives, comes from the markers written ahead of the record.
func TestRecordCoversEveryField(t *testing.T) {
	const markers = 3
	typ := reflect.TypeOf(Record{})
	var want []Record
	var full Record
	next := int64(0)
	fill(reflect.ValueOf(&full).Elem(), &next)
	full.Kind, full.Round = RecordSwarmOpen, markers
	want = append(want, full)
	for i := range typ.NumField() {
		switch typ.Field(i).Name {
		case "Kind", "Round":
			continue
		}
		r := Record{Kind: RecordProbe, Round: markers}
		next := int64(0)
		fill(reflect.ValueOf(&r).Elem().Field(i), &next)
		want = append(want, r)
	}

	var buf bytes.Buffer
	w := NewWriter(&buf)
	for range markers {
		if err := w.EndRound(); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range want {
		if err := w.write(r); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := replayAll(buf.Bytes())
	if err != nil || len(recs) != markers+len(want) {
		t.Fatalf("replayed %d records (%v), want %d", len(recs), err, markers+len(want))
	}
	for i, r := range want {
		if got := recs[markers+i]; !reflect.DeepEqual(got, r) {
			t.Fatalf("record %d:\ngot  %+v\nwant %+v", i, got, r)
		}
	}
}

// TestReplayTornVersusCorrupt: a journal cut anywhere inside its last
// frame is torn — every earlier record is delivered and the
// *TruncatedError names where they end — while a complete frame that does
// not parse is corrupt, and never ErrTruncated.
func TestReplayTornVersusCorrupt(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Probe(7, 1, 0, 3); err != nil {
		t.Fatal(err)
	}
	first := int64(buf.Len())
	if err := w.EndRound(); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for cut := first + 1; cut < int64(len(whole)); cut++ {
		recs, err := replayAll(whole[:cut])
		var torn *TruncatedError
		if !errors.As(err, &torn) || !errors.Is(err, ErrTruncated) || torn.Complete != first || len(recs) != 1 {
			t.Fatalf("cut at %d of %d: %d records, %v; want 1 record and a torn tail at %d",
				cut, len(whole), len(recs), err, first)
		}
	}

	probe := whole[:first]
	payload := probe[1:] // one-byte length prefix
	marker := whole[first:]
	frame := func(p []byte) []byte { return append([]byte{byte(len(p))}, p...) }
	withKind := func(k byte) []byte { return frame(append([]byte{k}, payload[1:]...)) }
	for _, c := range []struct {
		name  string
		frame []byte
	}{
		{"kind 0", withKind(0)},
		{"kind past the last", withKind(byte(RecordSwarmOpen) + 1)},
		{"trailing byte", frame(append(bytes.Clone(payload), 0))},
		{"short payload", frame(payload[:len(payload)-1])},
		{"bool byte 2", frame(append(append(bytes.Clone(payload[:4]), 2), payload[5:]...))},
		{"zero length", []byte{0}},
		{"non-minimal length", append([]byte{0x80 | byte(len(payload)), 0}, payload...)},
		{"length past maxFrame", []byte{0x81, 0x80, 0x80, 0x01}},
	} {
		data := append(append(bytes.Clone(probe), c.frame...), marker...)
		recs, err := replayAll(data)
		if !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrTruncated) || len(recs) != 1 {
			t.Fatalf("%s: %d records, %v; want the probe and ErrCorrupt", c.name, len(recs), err)
		}
	}
}

// TestReplayRefusesGobFrames: a wal written by a build whose frames were
// gob-encoded is corrupt under this format, not an empty torn tail.
func TestReplayRefusesGobFrames(t *testing.T) {
	data, err := os.ReadFile(gobWal)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := replayAll(data)
	if !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrTruncated) || len(recs) != 0 {
		t.Fatalf("gob wal: %d records, %v; want ErrCorrupt before any record", len(recs), err)
	}
}

// TestReplayRefusesIndexAdmitsFrames: a wal written by a build whose
// frames carried a post index and a round marker's admitted vote pairs is
// corrupt under this format, and so is each of its frames on its own: no
// such frame is ever read as some other record.
func TestReplayRefusesIndexAdmitsFrames(t *testing.T) {
	refusesEveryFrame(t, indexAdmitsWal, 11)
}

// TestReplayRefusesTermQuorumFrames: a wal written by a build whose frames
// carried a round marker's replication term and quorum is corrupt under
// this format, and so is each of its frames on its own.
func TestReplayRefusesTermQuorumFrames(t *testing.T) {
	refusesEveryFrame(t, termQuorumWal, 9)
}

// refusesEveryFrame checks that the wal fixture at path, and each of its
// want frames on its own, replays as ErrCorrupt before any record.
func refusesEveryFrame(t *testing.T, path string, want int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := replayAll(data)
	if !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrTruncated) || len(recs) != 0 {
		t.Fatalf("%s: %d records, %v; want ErrCorrupt before any record", path, len(recs), err)
	}
	frames := 0
	for rest := data; len(rest) > 0; frames++ {
		size, n := binary.Uvarint(rest)
		if n <= 0 || int(size) > len(rest)-n {
			t.Fatalf("fixture frame %d: bad length prefix", frames)
		}
		frame := rest[:n+int(size)]
		rest = rest[len(frame):]
		recs, err := replayAll(frame)
		if !errors.Is(err, ErrCorrupt) || len(recs) != 0 {
			t.Fatalf("fixture frame %d (%x): %d records, %v; want ErrCorrupt", frames, frame, len(recs), err)
		}
	}
	if frames != want {
		t.Fatalf("fixture holds %d frames, want one per record the old writer wrote (%d)", frames, want)
	}
}

// TestStoreTruncateThenAppend: cutting a torn tail off a reopened store
// makes what is appended next replay after the complete prefix, on disk
// and through a reopen; a wal that grew since it was loaded is not cut.
func TestStoreTruncateThenAppend(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Writer().Probe(3, 1, 0, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write([]byte{0x40, 0x01, 0x02}); err != nil { // a torn frame
		t.Fatal(err)
	}
	s.Close()

	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var torn *TruncatedError
	if err := ReplayRecords(s2.Tail(), func(Record) error { return nil }); !errors.As(err, &torn) {
		t.Fatalf("replay = %v, want a torn tail", err)
	}
	if err := s2.Truncate(torn.Complete); err != nil {
		t.Fatal(err)
	}
	if err := s2.Writer().Probe(3, 2, 0, 6); err != nil {
		t.Fatal(err)
	}
	if err := s2.Truncate(torn.Complete); err == nil {
		t.Fatal("a wal that grew since it was loaded was cut")
	}
	s2.Close()

	s3, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	recs := collect(t, s3)
	if len(recs) != 2 || recs[0].Object != 5 || recs[1].Object != 6 {
		t.Fatalf("after the cut and an append: %+v", recs)
	}
}
