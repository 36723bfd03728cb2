package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"
)

// fuzzStream decodes up to eight frames of like's kind from data, as one
// connection would, with frames capped at limit. Any decode error ends the
// stream; a panic fails. Each frame that decodes must re-encode to the same
// payload (a value has one encoding) and decode again to an equal value.
func fuzzStream(t *testing.T, data []byte, limit uint64, like any) {
	r := bytes.NewReader(data)
	dec := newStreamDecoder(r, limit)
	for range 8 {
		start := len(data) - r.Len()
		v, err := decodeMsg(dec, like)
		if err != nil {
			return
		}
		frame := data[start : len(data)-r.Len()]
		var buf bytes.Buffer
		if err := encodeMsg(NewStreamEncoder(&buf), v); err != nil {
			t.Fatalf("re-encode %+v: %v", v, err)
		}
		if !bytes.Equal(payload(buf.Bytes()), payload(frame)) {
			t.Fatalf("frame %x re-encodes as %x", frame, buf.Bytes())
		}
		again, err := decodeMsg(newStreamDecoder(&buf, limit), like)
		if err != nil || !sameValue(reflect.ValueOf(again), reflect.ValueOf(v)) {
			t.Fatalf("re-encoded frame decodes to %+v (%v), want %+v", again, err, v)
		}
	}
}

// payload strips a frame's length prefix.
func payload(frame []byte) []byte {
	_, n := binary.Uvarint(frame)
	return frame[n:]
}

// sameValue is reflect.DeepEqual with floats compared by bit pattern, so a
// NaN a fuzzer writes equals itself.
func sameValue(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Pointer:
		return sameValue(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			if w := b.MapIndex(k); !w.IsValid() || !sameValue(a.MapIndex(k), w) {
				return false
			}
		}
		return true
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	}
	return a.Equal(b)
}

// FuzzDecodeRequest feeds arbitrary byte streams to the request decoder. The
// server decodes every byte an unauthenticated peer sends, so the invariant
// is absolute: malformed, truncated, or hostile input returns an error (or a
// valid request) — it never panics and never allocates an implausible
// buffer.
func FuzzDecodeRequest(f *testing.F) {
	reqs := []Request{
		{Type: ReqHello, Player: 0, Token: "tok", Version: Version, Session: 1},
		{Type: ReqProbeBatch, Probes: []ProbeMsg{{Player: 0, Object: 5}}, Session: 1, Seq: 1},
		{Type: ReqPostBatch, Posts: []PostMsg{{Player: 0, Object: 5, Value: -1.5, Positive: true}},
			Session: 1, Seq: 2},
		{Type: ReqEpoch, Epoch: 1, Session: 1, Seq: 3},
		{Type: ReqDone, Players: []int{0}, Session: 1, Seq: 4},
		// A swarm range and a multi-player batch ending the round.
		{Type: ReqHello, Player: 1, PlayerTo: 4, Swarm: true, Token: "swarm", Version: Version, Session: 2},
		{Type: ReqPostBatch, Session: 2, Seq: 4, EndRound: true, Epoch: 2,
			Posts: []PostMsg{{Player: 1, Object: 9, Value: 1, Positive: true}, {Player: 3, Object: 17}}},
		// Shorter batches after longer ones: the decoder reuses the longer
		// frames' entry arrays.
		{Type: ReqPostBatch, Session: 2, Seq: 5, Posts: []PostMsg{{Player: 2, Object: 4, Value: 0.5}}},
		{Type: ReqProbeBatch, Session: 2, Seq: 6, Probes: []ProbeMsg{{Player: 1, Object: 3}, {Player: 2, Object: 8}}},
		{Type: ReqDone, Session: 2, Seq: 7, Players: []int{1, 2, 3}},
		{Type: ReqVoteBatch, Session: 2, Seq: 8, Players: []int{5}},
	}
	// A connection's whole stream, and torn at its middle.
	stream := encodeStream(f, reqs)
	f.Add(stream)
	f.Add(stream[:len(stream)/2])
	for i := range reqs {
		frame := encodeStream(f, reqs[i:i+1])
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
		f.Add(frame[:1])
	}
	// Hostile length prefixes.
	var lenb [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenb[:], uint64(MaxFrame)+1)
	f.Add(append([]byte(nil), lenb[:n]...))
	n = binary.PutUvarint(lenb[:], 1<<62)
	f.Add(append([]byte(nil), lenb[:n]...))
	f.Add([]byte{0x00})
	// Valid length, garbage payload.
	f.Add([]byte{0x08, 0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88})
	f.Add([]byte("not a frame at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzStream(t, data, MaxFrame, &Request{})
		fuzzReusedRequests(t, data)
	})
}

// fuzzReusedRequests decodes up to eight frames from data into one reused
// Request on one decoder, as the server does, and checks each against the
// same frame decoded on a fresh decoder: a frame decoded after others holds
// exactly what a fresh decode does, whatever the arrays it reused held.
func fuzzReusedRequests(t *testing.T, data []byte) {
	r := bytes.NewReader(data)
	dec := NewStreamDecoder(r)
	var req Request
	for range 8 {
		start := len(data) - r.Len()
		if err := dec.DecodeRequest(&req); err != nil {
			return
		}
		frame := data[start : len(data)-r.Len()]
		fresh, err := DecodeRequest(bytes.NewReader(frame))
		if err != nil || !sameValue(reflect.ValueOf(&req), reflect.ValueOf(fresh)) {
			t.Fatalf("frame %x decodes to %+v after earlier frames, %+v (%v) on a fresh decoder", frame, req, fresh, err)
		}
	}
}

// FuzzDecodeResponse is the client-side mirror: a byzantine or corrupted
// server must not be able to crash a player.
func FuzzDecodeResponse(f *testing.F) {
	resps := []Response{
		{N: 2, M: 8, Costs: []float64{1, 2}, Round: 1, Alpha: 0.5, Beta: 0.25, LocalTesting: true},
		{Round: 1, ProbeResults: []ProbeRes{{Value: 1, Good: true}, {Value: 0}}},
		{Round: 2, Votes: []VoteMsg{{Player: 1, Object: 5, Round: 1, Value: 1}}, Objects: []int{5},
			Count: 1, Counts: []CountMsg{{Object: 1, Count: 1}, {Object: 5, Count: 2}}},
		// Protocol v4: a coded error.
		{Round: 3, Code: CodeSessionExpired, Err: "gone"},
		// Shorter lists after longer ones: a reused Response keeps the
		// longer answers' arrays.
		{Round: 4, ProbeResults: []ProbeRes{{Value: 2}}},
		{Round: 4, Votes: []VoteMsg{{Player: 3, Object: 1, Round: 2, Value: 0.5}}},
		{Round: 4, Counts: []CountMsg{{Object: 2, Count: 3}}},
		{Code: CodeNotLeader, Err: "not the leader", Leader: "127.0.0.1:7000"},
	}
	stream := encodeStream(f, resps)
	f.Add(stream)
	f.Add(stream[:len(stream)/2])
	for i := range resps {
		f.Add(encodeStream(f, resps[i:i+1]))
	}
	f.Add([]byte{0x03, 0x01, 0x02, 0x03})

	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzStream(t, data, MaxFrame, &Response{})
		fuzzReusedResponses(t, data)
	})
}

// fuzzReusedResponses decodes up to eight frames from data into one reused
// Response, as a pipelining client decodes into its answer slots, and
// checks that each re-encodes to its own frame: entries left over from an
// earlier, longer answer would change the bytes.
func fuzzReusedResponses(t *testing.T, data []byte) {
	r := bytes.NewReader(data)
	dec := NewStreamDecoder(r)
	var resp Response
	for range 8 {
		start := len(data) - r.Len()
		if err := dec.DecodeResponse(&resp); err != nil {
			return
		}
		frame := data[start : len(data)-r.Len()]
		var buf bytes.Buffer
		if err := NewStreamEncoder(&buf).EncodeResponse(&resp); err != nil {
			t.Fatalf("re-encode %+v: %v", resp, err)
		}
		if !bytes.Equal(payload(buf.Bytes()), payload(frame)) {
			t.Fatalf("frame %x decoded after earlier frames re-encodes as %x", frame, buf.Bytes())
		}
	}
}
