package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// TestStreamRoundTrip pushes many request and response frames through one
// connection-scoped encoder/decoder pair and checks every field survives,
// including zero-field frames after heavily-populated ones (the decoder must
// zero its target or stale fields leak between frames).
func TestStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	enc := NewStreamEncoder(&buf)
	reqs := []Request{
		{Type: ReqHello, Session: 7, Player: 3, Token: "tok", Version: Version},
		{Type: ReqPostBatch, Session: 7, Seq: 1, Shard: 2, Posts: []PostMsg{
			{Object: 5, Value: 0.5, Positive: true, Index: 0},
			{Object: 9, Value: 0.25, Index: 1},
		}, EndRound: true},
		{Type: ReqEpoch, Epoch: 1, Session: 7, Seq: 2},
		{}, // all-zero frame: nothing from the batch frame may survive
	}
	for i := range reqs {
		if err := enc.EncodeRequest(&reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	dec := NewStreamDecoder(&buf)
	var got Request
	for i := range reqs {
		if err := dec.DecodeRequest(&got); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != reqs[i].Type || got.Session != reqs[i].Session ||
			got.Seq != reqs[i].Seq || got.Shard != reqs[i].Shard ||
			got.EndRound != reqs[i].EndRound || len(got.Posts) != len(reqs[i].Posts) {
			t.Fatalf("frame %d: got %+v, want %+v", i, got, reqs[i])
		}
		for j := range got.Posts {
			if got.Posts[j] != reqs[i].Posts[j] {
				t.Fatalf("frame %d post %d: got %+v, want %+v", i, j, got.Posts[j], reqs[i].Posts[j])
			}
		}
	}
	if err := dec.Decode(&got); !errors.Is(err, io.EOF) {
		t.Fatalf("past last frame: err = %v, want io.EOF", err)
	}
}

// TestStreamFirstFrameSelfContained pins the interop contract the NotLeader
// redirect relies on: the first frame of a stream encoder decodes with the
// stateless single-frame decoder, and a stateless frame decodes as the first
// frame of a stream decoder.
func TestStreamFirstFrameSelfContained(t *testing.T) {
	want := Request{Type: ReqHello, Session: 42, Player: 1, Token: "t", Version: Version}

	var a bytes.Buffer
	if err := NewStreamEncoder(&a).EncodeRequest(&want); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRequest(&a)
	if err != nil {
		t.Fatalf("stateless decode of first stream frame: %v", err)
	}
	if got.Type != want.Type || got.Session != want.Session || got.Token != want.Token {
		t.Fatalf("got %+v, want %+v", *got, want)
	}

	var b bytes.Buffer
	if err := EncodeRequest(&b, &want); err != nil {
		t.Fatal(err)
	}
	var got2 Request
	if err := NewStreamDecoder(&b).DecodeRequest(&got2); err != nil {
		t.Fatalf("stream decode of stateless frame: %v", err)
	}
	if got2.Type != want.Type || got2.Session != want.Session || got2.Token != want.Token {
		t.Fatalf("got %+v, want %+v", got2, want)
	}
}

// TestStreamResponseRoundTrip mirrors the request test on the response side,
// where maps and slices dominate the payload.
func TestStreamResponseRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	enc := NewStreamEncoder(&buf)
	resps := []Response{
		{N: 8, M: 64, LocalTesting: true, Alpha: 1, Beta: 0.25, Round: 3, Shards: 4,
			Costs: []float64{1, 2}},
		{Votes: []VoteMsg{{Player: 1, Object: 2, Round: 3, Value: 0.5}},
			Counts: map[int]int{7: 2}, Objects: []int{1, 2, 3}},
		{Err: "gone", Code: CodeSessionExpired},
		{},
	}
	for i := range resps {
		if err := enc.EncodeResponse(&resps[i]); err != nil {
			t.Fatal(err)
		}
	}
	dec := NewStreamDecoder(&buf)
	var got Response
	for i := range resps {
		if err := dec.DecodeResponse(&got); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Err != resps[i].Err || got.Code != resps[i].Code ||
			got.Round != resps[i].Round || got.Shards != resps[i].Shards ||
			len(got.Votes) != len(resps[i].Votes) || len(got.Counts) != len(resps[i].Counts) {
			t.Fatalf("frame %d: got %+v, want %+v", i, got, resps[i])
		}
	}
}

// TestStreamDecoderRejectsGarbage feeds implausible lengths and corrupt
// payloads: each must error (never panic), and the error must be sticky —
// the shared type stream cannot be trusted after a bad frame.
func TestStreamDecoderRejectsGarbage(t *testing.T) {
	// Implausible declared length.
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0x7f}
	d := NewStreamDecoder(bytes.NewReader(huge))
	var req Request
	if err := d.DecodeRequest(&req); err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("huge frame: err = %v, want corruption error", err)
	}
	if err := d.DecodeRequest(&req); err == nil {
		t.Fatal("decoder not sticky after corruption")
	}

	// Valid first frame, then a torn second frame.
	var buf bytes.Buffer
	enc := NewStreamEncoder(&buf)
	for i := 0; i < 2; i++ {
		if err := enc.EncodeRequest(&Request{Type: ReqEpoch, Epoch: i + 1, Seq: uint64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	whole := buf.Bytes()
	d2 := NewStreamDecoder(bytes.NewReader(whole[:len(whole)-3]))
	if err := d2.DecodeRequest(&req); err != nil {
		t.Fatalf("first frame: %v", err)
	}
	if err := d2.DecodeRequest(&req); err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("torn frame: err = %v, want truncation error", err)
	}

	// Garbage payload under a plausible length.
	junk := append([]byte{0x06}, []byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02}...)
	d3 := NewStreamDecoder(bytes.NewReader(junk))
	if err := d3.DecodeRequest(&req); err == nil {
		t.Fatal("garbage payload decoded")
	}
}
