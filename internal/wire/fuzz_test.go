package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDecodeRequest feeds arbitrary byte streams to the request decoder. The
// server calls DecodeRequest on every byte an unauthenticated peer sends, so
// the invariant is absolute: malformed, truncated, or hostile input returns
// an error (or a valid request) — it never panics and never allocates an
// implausible buffer.
func FuzzDecodeRequest(f *testing.F) {
	// Valid frames.
	for _, req := range []Request{
		{Type: ReqHello, Player: 0, Token: "tok", Version: Version, Session: 1},
		{Type: ReqProbe, Object: 5, Session: 1, Seq: 1},
		{Type: ReqPost, Object: 5, Value: -1.5, Positive: true, Session: 1, Seq: 2},
		{Type: ReqEpoch, Epoch: 1, Session: 1, Seq: 3},
		// Protocol v4: lane hello and shard-routed indexed batch.
		{Type: ReqHello, Player: 1, Token: "tok", Version: Version, Session: 2, Lane: true, Shard: 3},
		{Type: ReqPostBatch, Session: 2, Seq: 4, Shard: 3,
			Posts: []PostMsg{{Object: 9, Value: 1, Positive: true, Index: 17}}},
	} {
		var buf bytes.Buffer
		if err := EncodeRequest(&buf, &req); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		// Truncations of a valid frame.
		if buf.Len() > 2 {
			f.Add(buf.Bytes()[:buf.Len()/2])
			f.Add(buf.Bytes()[:1])
		}
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
		r := bytes.NewReader(data)
		for i := 0; i < 4; i++ { // drain several frames, as a connection would
			req, err := DecodeRequest(r)
			if err != nil {
				return // any error is acceptable; panics are not
			}
			if req == nil {
				t.Fatal("nil request without error")
			}
		}
	})
}

// FuzzDecodeResponse is the client-side mirror: a byzantine or corrupted
// server must not be able to crash a player.
func FuzzDecodeResponse(f *testing.F) {
	var buf bytes.Buffer
	resp := Response{N: 2, M: 8, Costs: []float64{1, 2}, Round: 1, Counts: map[int]int{1: 1}}
	if err := EncodeResponse(&buf, &resp); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()/2])
	f.Add([]byte{0x03, 0x01, 0x02, 0x03})
	// Protocol v4: shard-count payload and a coded error.
	buf.Reset()
	if err := EncodeResponse(&buf, &Response{Round: 3, Shards: 4, Code: CodeSessionExpired, Err: "gone"}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = DecodeResponse(bytes.NewReader(data))
	})
}
