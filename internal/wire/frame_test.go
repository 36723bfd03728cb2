package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"slices"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	reqs := []Request{
		{Type: ReqHello, Player: 3, Token: "secret", Version: Version, Session: 0xabc},
		{Type: ReqProbeBatch, Probes: []ProbeMsg{{Player: 3, Object: 7}}, Session: 0xabc, Seq: 1},
		{Type: ReqPostBatch, Posts: []PostMsg{{Player: 3, Object: 7, Value: 0.25, Positive: true}},
			Session: 0xabc, Seq: 2},
		{Type: ReqWindow, From: 1, To: 9, Session: 0xabc, Seq: 3},
		{Type: ReqPostBatch, Session: 0xabc, Seq: 4, EndRound: true, Epoch: 1,
			Posts: []PostMsg{{Player: 3, Object: 2, Value: 0.5, Positive: true}, {Player: 3, Object: 3}}},
		{Type: ReqDone, Players: []int{3}, Session: 0xabc, Seq: 5},
	}
	for i := range reqs {
		if err := EncodeRequest(&buf, &reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Frames are self-contained: decoding them back-to-back from one stream
	// must reproduce each request exactly and end with a clean io.EOF.
	for i := range reqs {
		got, err := DecodeRequest(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reqEqual(got, &reqs[i]) {
			t.Fatalf("frame %d: got %+v, want %+v", i, *got, reqs[i])
		}
	}
	if _, err := DecodeRequest(&buf); !errors.Is(err, io.EOF) {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}
}

// reqEqual compares requests field by field (the batch slices keep Request
// from being comparable with ==).
func reqEqual(a, b *Request) bool {
	if len(a.Posts) != len(b.Posts) || len(a.Probes) != len(b.Probes) || len(a.Players) != len(b.Players) {
		return false
	}
	for i := range a.Posts {
		if a.Posts[i] != b.Posts[i] {
			return false
		}
	}
	for i := range a.Probes {
		if a.Probes[i] != b.Probes[i] {
			return false
		}
	}
	for i := range a.Players {
		if a.Players[i] != b.Players[i] {
			return false
		}
	}
	return a.Type == b.Type && a.Player == b.Player && a.Token == b.Token &&
		a.Version == b.Version && a.Session == b.Session && a.Seq == b.Seq &&
		a.Object == b.Object && a.From == b.From && a.To == b.To &&
		a.EndRound == b.EndRound && a.Epoch == b.Epoch
}

func TestResponseFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := Response{
		N: 4, M: 32, LocalTesting: true, Alpha: 0.75, Beta: 0.125,
		Costs: []float64{1, 2}, Round: 5,
		Votes:  []VoteMsg{{Player: 1, Object: 2, Round: 3, Value: 0.5}},
		Counts: []CountMsg{{Object: 7, Count: 2}},
	}
	if err := EncodeResponse(&buf, &want); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResponse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != want.N || got.M != want.M || got.Round != want.Round ||
		len(got.Votes) != 1 || got.Votes[0] != want.Votes[0] ||
		len(got.Counts) != 1 || got.Counts[0] != want.Counts[0] {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

// TestCountsMustAscend: a window answer's objects are strictly ascending on
// the wire (protocol v15); a repeated or descending object is refused.
func TestCountsMustAscend(t *testing.T) {
	for _, c := range []struct {
		counts []CountMsg
		ok     bool
	}{
		{[]CountMsg{{Object: -4, Count: 1}, {Object: 0, Count: 2}, {Object: 9, Count: 1}}, true},
		{[]CountMsg{{Object: 5, Count: 1}, {Object: 5, Count: 2}}, false},
		{[]CountMsg{{Object: 5, Count: 1}, {Object: 3, Count: 1}}, false},
	} {
		var buf bytes.Buffer
		if err := EncodeResponse(&buf, &Response{Counts: c.counts}); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeResponse(&buf)
		if c.ok && (err != nil || !slices.Equal(got.Counts, c.counts)) {
			t.Fatalf("counts %v: decoded %+v, %v", c.counts, got, err)
		}
		if !c.ok && (err == nil || !strings.Contains(err.Error(), "counts object")) {
			t.Fatalf("counts %v: err = %v, want a refusal", c.counts, err)
		}
	}
}

func TestTornFrameIsError(t *testing.T) {
	var buf bytes.Buffer
	req := Request{Type: ReqProbeBatch, Probes: []ProbeMsg{{Object: 1}}, Session: 9, Seq: 1}
	if err := EncodeRequest(&buf, &req); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	// Every proper prefix is either a clean EOF (nothing read yet) or a
	// decode error — never a panic, never a bogus request.
	for cut := 0; cut < len(whole); cut++ {
		_, err := DecodeRequest(bytes.NewReader(whole[:cut]))
		if err == nil {
			t.Fatalf("torn frame of %d/%d bytes decoded", cut, len(whole))
		}
		if cut == 0 && !errors.Is(err, io.EOF) {
			t.Fatalf("empty stream: %v, want io.EOF", err)
		}
	}
}

func TestImplausibleFrameSizeRejected(t *testing.T) {
	// A hostile length prefix must be rejected before any allocation.
	var lenb [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenb[:], uint64(MaxFrame)+1)
	if _, err := DecodeRequest(bytes.NewReader(lenb[:n])); err == nil {
		t.Fatal("oversized frame accepted")
	}
	if _, err := DecodeRequest(bytes.NewReader([]byte{0x00})); err == nil {
		t.Fatal("zero-length frame accepted")
	}
}

func TestGarbagePayloadIsError(t *testing.T) {
	junk := []byte{0x05, 0xff, 0xfe, 0xfd, 0xfc, 0xfb} // valid length, garbage payload
	if _, err := DecodeRequest(bytes.NewReader(junk)); err == nil {
		t.Fatal("garbage payload decoded")
	}
	if _, err := DecodeResponse(bytes.NewReader(junk)); err == nil {
		t.Fatal("garbage payload decoded as response")
	}
}

// frameOf wraps a payload in its length prefix.
func frameOf(payload []byte) []byte {
	return append(binary.AppendUvarint(nil, uint64(len(payload))), payload...)
}

// splice returns b with b[i:j] replaced by mid, leaving b as it was.
func splice(b []byte, i, j int, mid ...byte) []byte {
	return append(append(append([]byte(nil), b[:i]...), mid...), b[j:]...)
}

// TestHostileCountRefusedBeforeAllocation: a slice count larger than the
// bytes left in its frame is refused before anything is allocated for it.
func TestHostileCountRefusedBeforeAllocation(t *testing.T) {
	// A post-batch request's kind and type, its eight zero scalars (Session
	// through To), then a count of 2^40 posts: a 17-byte frame.
	req := append([]byte{kindRequest, byte(ReqPostBatch)}, make([]byte, 8)...)
	req = frameOf(binary.AppendUvarint(req, 1<<40))
	// A response's kind and seven zero fields (Err through Beta), then 2^40
	// costs.
	resp := append([]byte{kindResponse}, make([]byte, 7)...)
	resp = frameOf(binary.AppendUvarint(resp, 1<<40))
	for _, c := range []struct {
		name   string
		decode func() error
	}{
		{"request posts", func() error { _, err := DecodeRequest(bytes.NewReader(req)); return err }},
		{"response costs", func() error { _, err := DecodeResponse(bytes.NewReader(resp)); return err }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.decode()
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "entries declared") {
			t.Fatalf("%s: err = %v, want a refused count", c.name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Fatalf("%s: refusing the count allocated %d bytes", c.name, grew)
		}
	}
}

// TestMalformedPayloadIsStickyError: a bool byte other than 0 or 1, a varint
// that is not minimal or runs past 64 bits, a byte after the last field, and
// a frame of the wrong kind are each an error, and the decoder stays failed
// even though a valid frame follows.
func TestMalformedPayloadIsStickyError(t *testing.T) {
	ack := (&RepAck{OK: true, Term: 5}).appendTo(nil) // kind | OK | Term | ...
	valid := frameOf(ack)
	if err := NewRepStreamDecoder(bytes.NewReader(valid)).DecodeRepAck(&RepAck{}); err != nil {
		t.Fatalf("the unmodified frame: %v", err)
	}
	for _, c := range []struct {
		name    string
		payload []byte
	}{
		{"bool byte 2", splice(ack, 1, 2, 2)},
		{"bool byte 0xff", splice(ack, 1, 2, 0xff)},
		{"non-minimal varint", splice(ack, 2, 3, 0x85, 0x00)},
		{"varint past 64 bits", splice(ack, 2, 3, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)},
		{"trailing byte", splice(ack, len(ack), len(ack), 0)},
		{"torn payload", ack[:len(ack)-1]},
		{"wrong kind", splice(ack, 0, 1, kindRep)},
	} {
		dec := NewRepStreamDecoder(bytes.NewReader(append(frameOf(c.payload), valid...)))
		var got RepAck
		if err := dec.DecodeRepAck(&got); err == nil || errors.Is(err, io.EOF) {
			t.Fatalf("%s: err = %v, want a decode error", c.name, err)
		}
		if err := dec.DecodeRepAck(&got); err == nil {
			t.Fatalf("%s: the error is not sticky: the next frame decoded", c.name)
		}
	}
}
