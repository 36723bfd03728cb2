package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
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
		{Type: ReqPostBatch, Session: 7, Seq: 1, Posts: []PostMsg{
			{Player: 3, Object: 5, Value: 0.5, Positive: true},
			{Player: 3, Object: 9, Value: 0.25},
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
			got.Seq != reqs[i].Seq || got.Player != reqs[i].Player ||
			got.EndRound != reqs[i].EndRound || len(got.Posts) != len(reqs[i].Posts) {
			t.Fatalf("frame %d: got %+v, want %+v", i, got, reqs[i])
		}
		for j := range got.Posts {
			if got.Posts[j] != reqs[i].Posts[j] {
				t.Fatalf("frame %d post %d: got %+v, want %+v", i, j, got.Posts[j], reqs[i].Posts[j])
			}
		}
	}
	if err := dec.DecodeRequest(&got); !errors.Is(err, io.EOF) {
		t.Fatalf("past last frame: err = %v, want io.EOF", err)
	}
}

// TestStreamFirstFrameSelfContained pins the interop contract the NotLeader
// redirect relies on, for every frame of a stream (protocol v11): each frame
// a stream encoder writes decodes alone with the stateless single-frame
// decoder and with a fresh stream decoder, and stateless frames decode in
// sequence through one stream decoder.
func TestStreamFirstFrameSelfContained(t *testing.T) {
	reqs := []Request{
		{Type: ReqHello, Session: 42, Player: 1, Token: "t", Version: Version},
		{Type: ReqProbeBatch, Session: 42, Seq: 1, Probes: []ProbeMsg{{Player: 1, Object: 9}}},
		{Type: ReqPostBatch, Session: 42, Seq: 2, EndRound: true, Epoch: 1,
			Posts: []PostMsg{{Player: 1, Object: 9, Value: 0.5, Positive: true}}},
		{Type: ReqDone, Session: 42, Seq: 3, Players: []int{1}},
	}
	var stream, stateless bytes.Buffer
	enc := NewStreamEncoder(&stream)
	var ends []int
	for i := range reqs {
		if err := enc.EncodeRequest(&reqs[i]); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, stream.Len())
		if err := EncodeRequest(&stateless, &reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(stream.Bytes(), stateless.Bytes()) {
		t.Fatal("a stream encoder and the stateless encoder wrote different bytes")
	}

	start := 0
	for i, end := range ends {
		frame := stream.Bytes()[start:end]
		start = end
		got, err := DecodeRequest(bytes.NewReader(frame))
		if err != nil || !reflect.DeepEqual(*got, reqs[i]) {
			t.Fatalf("stateless decode of stream frame %d: %v\ngot  %+v\nwant %+v", i, err, got, reqs[i])
		}
		var got2 Request
		if err := NewStreamDecoder(bytes.NewReader(frame)).DecodeRequest(&got2); err != nil || !reflect.DeepEqual(got2, reqs[i]) {
			t.Fatalf("fresh stream decoder on frame %d: %v\ngot  %+v\nwant %+v", i, err, got2, reqs[i])
		}
	}

	dec := NewStreamDecoder(&stateless)
	for i := range reqs {
		var got Request
		if err := dec.DecodeRequest(&got); err != nil || !reflect.DeepEqual(got, reqs[i]) {
			t.Fatalf("stream decode of stateless frame %d: %v\ngot  %+v\nwant %+v", i, err, got, reqs[i])
		}
	}
}

// TestStreamResponseRoundTrip mirrors the request test on the response side,
// where slices dominate the payload.
func TestStreamResponseRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	enc := NewStreamEncoder(&buf)
	resps := []Response{
		{N: 8, M: 64, LocalTesting: true, Alpha: 1, Beta: 0.25, Round: 3,
			Costs: []float64{1, 2}},
		{Votes: []VoteMsg{{Player: 1, Object: 2, Round: 3, Value: 0.5}},
			Counts: []CountMsg{{Object: 7, Count: 2}}, Objects: []int{1, 2, 3}},
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
			got.Round != resps[i].Round || got.Leader != resps[i].Leader ||
			len(got.Votes) != len(resps[i].Votes) || len(got.Counts) != len(resps[i].Counts) {
			t.Fatalf("frame %d: got %+v, want %+v", i, got, resps[i])
		}
	}
}

// TestStreamDecoderRejectsGarbage feeds implausible lengths and corrupt
// payloads: each must error (never panic), and the error must be sticky —
// the stream's frame boundaries cannot be trusted after a bad frame.
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

// countingWriter counts the Write calls made on it.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestStreamEncoderOneWritePerFrame pins that each frame, length and
// payload together, reaches the connection in one Write.
func TestStreamEncoderOneWritePerFrame(t *testing.T) {
	w := &countingWriter{}
	enc := NewStreamEncoder(w)
	for _, like := range framedKinds {
		for _, v := range []any{filled(like), like} {
			before := w.writes
			if err := encodeMsg(enc, v); err != nil {
				t.Fatal(err)
			}
			if got := w.writes - before; got != 1 {
				t.Fatalf("%T: %d writes for one frame, want 1", v, got)
			}
		}
	}
}

// codecRound is one round of BenchmarkStreamCodec: a swarm group's probe,
// post, vote-batch and done frames over n players, and their responses.
func codecRound(n int) (reqs []Request, resps []Response) {
	probes := make([]ProbeMsg, n)
	posts := make([]PostMsg, n)
	players := make([]int, n)
	results := make([]ProbeRes, n)
	votes := make([]VoteMsg, n)
	for i := range n {
		obj := (i * 7919) % 65536
		probes[i] = ProbeMsg{Player: i, Object: obj}
		posts[i] = PostMsg{Player: i, Object: obj, Value: float64(i % 2), Positive: i%2 == 1}
		players[i] = i
		results[i] = ProbeRes{Value: float64(i % 2), Good: i%2 == 1}
		votes[i] = VoteMsg{Player: i, Object: obj, Round: 12, Value: 1}
	}
	reqs = []Request{
		{Type: ReqProbeBatch, Session: 1, Seq: 1, Probes: probes},
		{Type: ReqPostBatch, Session: 1, Seq: 2, Posts: posts, EndRound: true, Epoch: 13},
		{Type: ReqVoteBatch, Session: 1, Seq: 3, Players: players},
		{Type: ReqDone, Session: 1, Seq: 4, Players: players},
	}
	resps = []Response{
		{Round: 12, ProbeResults: results},
		{Round: 13},
		{Round: 13, Votes: votes},
		{Round: 13},
	}
	return reqs, resps
}

// BenchmarkStreamCodec sends 4096-entry probe, post, vote-batch and done
// frames, and their responses, through one encoder/decoder pair; one op is
// the round of four frame pairs.
func BenchmarkStreamCodec(b *testing.B) {
	reqs, resps := codecRound(4096)
	var buf bytes.Buffer
	enc, dec := NewStreamEncoder(&buf), NewStreamDecoder(&buf)
	var req Request
	var resp Response
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for i := range reqs {
			if err := enc.EncodeRequest(&reqs[i]); err != nil {
				b.Fatal(err)
			}
			if err := dec.DecodeRequest(&req); err != nil {
				b.Fatal(err)
			}
			if err := enc.EncodeResponse(&resps[i]); err != nil {
				b.Fatal(err)
			}
			if err := dec.DecodeResponse(&resp); err != nil {
				b.Fatal(err)
			}
		}
	}
}
