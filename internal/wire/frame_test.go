package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
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
		Counts: map[int]int{7: 2},
	}
	if err := EncodeResponse(&buf, &want); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResponse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != want.N || got.M != want.M || got.Round != want.Round ||
		len(got.Votes) != 1 || got.Votes[0] != want.Votes[0] || got.Counts[7] != 2 {
		t.Fatalf("got %+v, want %+v", got, want)
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
	junk := []byte{0x05, 0xff, 0xfe, 0xfd, 0xfc, 0xfb} // valid length, garbage gob
	if _, err := DecodeRequest(bytes.NewReader(junk)); err == nil {
		t.Fatal("garbage payload decoded")
	}
	if _, err := DecodeResponse(bytes.NewReader(junk)); err == nil {
		t.Fatal("garbage payload decoded as response")
	}
}
