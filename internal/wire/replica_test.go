package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"testing"

	"repro/internal/codec"
)

// repMsgs and repAcks cover every replication message kind and the ack
// shapes the group sends back.
var (
	repMsgs = []RepMsg{
		{Type: RepSync, Term: 3, From: 1},
		{Type: RepAppend, Term: 3, From: 0, Offset: 4096, Data: []byte("journal bytes")},
		{Type: RepRotate, Term: 4, From: 0, Offset: 9000, Snapshot: []byte("snap")},
		{Type: RepHeartbeat, Term: 4, From: 0},
		{Type: RepVoteReq, Term: 5, From: 2, Offset: 250},
		{Type: RepFetch, Term: 5, From: 2, Offset: 128},
	}
	repAcks = []RepAck{
		{OK: true, Term: 3, Offset: 512},
		{OK: false, Term: 9, Err: "already leading this term"},
		{OK: false, Term: 5, Offset: 300},
		{OK: true, Term: 3, Offset: 64, Data: []byte("tail"), Snapshot: []byte("seg"), Reset: true},
	}
)

func TestRepMsgRoundTrip(t *testing.T) {
	dec := NewRepStreamDecoder(bufio.NewReader(bytes.NewReader(encodeStream(t, repMsgs))))
	for _, want := range repMsgs {
		var got RepMsg
		if err := dec.DecodeRep(&got); err != nil {
			t.Fatalf("%s: decode: %v", want.Type, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: round trip mismatch:\ngot  %+v\nwant %+v", want.Type, got, want)
		}
	}
	var got RepMsg
	if err := dec.DecodeRep(&got); err != io.EOF {
		t.Fatalf("clean end of stream: got %v, want io.EOF", err)
	}
}

// TestRepMsgReusesData: decoding into a message that holds a payload
// buffer reuses it for the next payload, and a frame without Data leaves
// the message's Data empty.
func TestRepMsgReusesData(t *testing.T) {
	msgs := []RepMsg{
		{Type: RepAppend, Term: 1, Data: []byte("first payload")},
		{Type: RepAppend, Term: 1, Offset: 13, Data: []byte("second")},
		{Type: RepHeartbeat, Term: 1},
	}
	dec := NewRepStreamDecoder(bytes.NewReader(encodeStream(t, msgs)))
	var msg RepMsg
	if err := dec.DecodeRep(&msg); err != nil || string(msg.Data) != "first payload" {
		t.Fatalf("first append: %q, %v", msg.Data, err)
	}
	buf := &msg.Data[0]
	if err := dec.DecodeRep(&msg); err != nil || string(msg.Data) != "second" || msg.Offset != 13 {
		t.Fatalf("second append: %+v, %v", msg, err)
	}
	if &msg.Data[0] != buf {
		t.Fatal("the second payload did not reuse the first one's buffer")
	}
	if err := dec.DecodeRep(&msg); err != nil || msg.Type != RepHeartbeat || len(msg.Data) != 0 {
		t.Fatalf("heartbeat after appends: %+v, %v", msg, err)
	}
}

func TestRepAckRoundTrip(t *testing.T) {
	dec := NewRepStreamDecoder(bufio.NewReader(bytes.NewReader(encodeStream(t, repAcks))))
	var got RepAck
	for _, want := range repAcks {
		if err := dec.DecodeRepAck(&got); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
		}
	}
}

// FuzzDecodeRep feeds arbitrary byte streams to a replica link's decoder.
// Replica links are authenticated by deployment topology, not by handshake,
// so the decoder still faces whatever a confused or half-dead peer writes:
// it must error out cleanly, never panic, never allocate beyond MaxRepFrame.
func FuzzDecodeRep(f *testing.F) {
	stream := encodeStream(f, repMsgs)
	for k := 1; k <= len(repMsgs); k++ {
		f.Add(encodeStream(f, repMsgs[:k])) // the first k frames of a link
	}
	for i := range repMsgs {
		f.Add(encodeStream(f, repMsgs[i:i+1])) // each kind as a link's first frame
	}
	first := len(encodeStream(f, repMsgs[:1]))
	f.Add(stream[:len(stream)/2])
	f.Add(stream[:1])
	f.Add(stream[:len(stream)-3])
	f.Add(stream[:first+1]) // torn at the second frame's length
	f.Add(append(stream[:first:first], "not a frame at all"...))
	f.Add(append(stream[:first:first], encodeStream(f, repAcks[:1])...)) // an ack stream spliced in
	var lenb [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenb[:], MaxRepFrame+1)
	f.Add(append([]byte(nil), lenb[:n]...))
	n = binary.PutUvarint(lenb[:], 1<<62)
	f.Add(append([]byte(nil), lenb[:n]...))
	f.Add([]byte{0x00})
	f.Add([]byte("not a frame at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzStream(t, data, MaxRepFrame, &RepMsg{})
	})
}

// FuzzDecodeRepAck does the same for the acknowledgment side of the link.
func FuzzDecodeRepAck(f *testing.F) {
	stream := encodeStream(f, repAcks)
	for k := 1; k <= len(repAcks); k++ {
		f.Add(encodeStream(f, repAcks[:k]))
	}
	for i := range repAcks {
		f.Add(encodeStream(f, repAcks[i:i+1]))
	}
	f.Add(stream[:len(stream)/2])
	f.Add(stream[:len(stream)-3])
	var lenb [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenb[:], MaxRepFrame+1)
	f.Add(append([]byte(nil), lenb[:n]...))
	f.Add([]byte{0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzStream(t, data, MaxRepFrame, &RepAck{})
	})
}

// zeros reads n zero bytes without holding them.
type zeros struct{ n int }

func (z *zeros) Read(p []byte) (int, error) {
	if z.n == 0 {
		return 0, io.EOF
	}
	k := min(len(p), z.n)
	clear(p[:k])
	z.n -= k
	return k, nil
}

// maxRepFrameStream is a replica link stream of three frames: a heartbeat
// with term 1, a rotation with term 7 whose snapshot of zeros makes its
// payload exactly size bytes, and a heartbeat with term 2. The snapshot is
// streamed lazily, so the test holds no copy of it; its length is returned.
func maxRepFrameStream(t *testing.T, size int) (io.Reader, int) {
	t.Helper()
	head := encodeStream(t, []RepMsg{{Type: RepHeartbeat, Term: 1}})
	tail := encodeStream(t, []RepMsg{{Type: RepHeartbeat, Term: 2}})
	rot := RepMsg{Type: RepRotate, Term: 7}
	// rot's payload ends with the snapshot's length (0); base is the rest.
	body := rot.appendTo(nil)
	base := len(body) - 1
	snap := size - base - 1
	for base+codec.UvarintSize(uint64(snap))+snap > size {
		snap--
	}
	if got := base + codec.UvarintSize(uint64(snap)) + snap; got != size {
		t.Fatalf("rotation payload is %d bytes, want %d", got, size)
	}
	prefix := binary.AppendUvarint(nil, uint64(size))
	prefix = append(prefix, body[:base]...)
	prefix = binary.AppendUvarint(prefix, uint64(snap))
	return io.MultiReader(bytes.NewReader(head), bytes.NewReader(prefix), &zeros{n: snap},
		bytes.NewReader(tail)), snap
}

// TestRepFrameCaps pins the replica link's size bounds: a frame of exactly
// MaxRepFrame bytes decodes (frames may exceed the client MaxFrame:
// snapshots ride in rotations), one byte more is corruption, and a torn
// frame is an error. The decoder does not keep a frame above MaxFrame once
// it is read.
func TestRepFrameCaps(t *testing.T) {
	stream, snap := maxRepFrameStream(t, MaxRepFrame)
	dec := NewRepStreamDecoder(bufio.NewReader(stream))
	var got RepMsg
	for _, want := range []uint64{1, 7, 2} {
		if err := dec.DecodeRep(&got); err != nil || got.Term != want {
			t.Fatalf("frame with term %d: got term %d, %v", want, got.Term, err)
		}
		if want == 7 && len(got.Snapshot) != snap {
			t.Fatalf("rotation snapshot: %d bytes, want %d", len(got.Snapshot), snap)
		}
		if cap(dec.frame) > MaxFrame {
			t.Fatalf("decoder kept a %d-byte frame buffer", cap(dec.frame))
		}
	}

	// A snapshot above the client cap round-trips on a replica link.
	big := RepMsg{Type: RepRotate, Term: 1, Snapshot: bytes.Repeat([]byte{5}, MaxFrame+1024)}
	dec = NewRepStreamDecoder(bytes.NewReader(encodeStream(t, []RepMsg{big})))
	if err := dec.DecodeRep(&got); err != nil || !bytes.Equal(got.Snapshot, big.Snapshot) {
		t.Fatalf("decode snapshot frame: %v (snapshot %d bytes)", err, len(got.Snapshot))
	}

	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], MaxRepFrame+1)
	if err := NewRepStreamDecoder(bytes.NewReader(hdr[:n])).DecodeRep(&got); err == nil {
		t.Fatal("declared frame above MaxRepFrame accepted")
	}

	// Truncated payload: header promises more bytes than follow.
	n = binary.PutUvarint(hdr[:], 100)
	torn := append(hdr[:n:n], "short"...)
	var ack RepAck
	if err := NewRepStreamDecoder(bytes.NewReader(torn)).DecodeRepAck(&ack); err == nil {
		t.Fatal("truncated frame accepted")
	}
}
