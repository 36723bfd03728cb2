package server

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/rng"
	"repro/internal/wire"
)

// streamBytes reads a view's retained bytes from off to pos, one chunk-sized
// piece at a time, the way the sender ships them.
func streamBytes(v streamView, off int64) []byte {
	var out []byte
	for off < v.pos {
		piece := v.from(off)
		if len(piece) == 0 || len(piece) > repSendChunk {
			return nil
		}
		out = append(out, piece...)
		off += int64(len(piece))
	}
	return out
}

// fetchAll catches up from off through serveFetchLocked, as a candidate's
// catch-up loop does, and returns the bytes the replies carried.
func fetchAll(t *testing.T, n *ReplicaNode, off int64) []byte {
	t.Helper()
	var out []byte
	for {
		ack := n.serveFetchLocked(&wire.RepMsg{Type: wire.RepFetch, Offset: off})
		if !ack.OK || ack.Reset {
			t.Fatalf("fetch from %d: %+v", off, ack)
		}
		if len(ack.Data) == 0 {
			return out
		}
		out = append(out, ack.Data...)
		off += int64(len(ack.Data))
	}
}

// TestReplicaLogChunks pins the chunked retention of a replicated stream:
// appends straddling chunk boundaries come back byte for byte from any
// offset, each read stays within one chunk, a fetch from any offset returns
// exactly the bytes appended from there on, and rotation and reset drop
// what was retained.
func TestReplicaLogChunks(t *testing.T) {
	const C = repSendChunk
	l := newRepLog(nil)
	r := rng.New(11)
	var want []byte
	// Sizes that land exactly on, just short of, and across boundaries,
	// plus one append spanning several chunks.
	for _, n := range []int{1, C - 2, 1, 1, C / 2, 3*C + 5, 7, C - 7} {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(r.Uint64())
		}
		l.appendLocal(p)
		want = append(want, p...)
	}
	v := l.view()
	if v.base != 0 || v.pos != int64(len(want)) {
		t.Fatalf("view base %d pos %d, want 0 and %d", v.base, v.pos, len(want))
	}
	if got := int64(len(v.chunks)); got != (v.pos+C-1)/C {
		t.Fatalf("%d chunks retain %d bytes", got, v.pos)
	}
	for _, off := range []int64{0, C - 1, C, v.pos} {
		piece := v.from(off)
		end := min((off/C+1)*C, v.pos)
		if !bytes.Equal(piece, want[off:end]) {
			t.Fatalf("read at %d: %d bytes, want the %d up to its chunk's end", off, len(piece), end-off)
		}
	}
	for _, off := range []int64{0, 1, C - 1, C, C + 1, 2*C + 3, v.pos - 1, v.pos} {
		if got := streamBytes(v, off); !bytes.Equal(got, want[off:]) {
			t.Fatalf("stream read from %d diverges from the appended bytes", off)
		}
	}

	n := &ReplicaNode{log: l, term: 1}
	for _, off := range []int64{0, C - 1, C, 2*C + 3, v.pos} {
		if got := fetchAll(t, n, off); !bytes.Equal(got, want[off:]) {
			t.Fatalf("fetch from %d returned %d bytes, want %d", off, len(got), len(want)-int(off))
		}
	}
	if ack := n.serveFetchLocked(&wire.RepMsg{Type: wire.RepFetch, Offset: v.pos + 1}); ack.OK {
		t.Fatalf("fetch beyond the stream answered %+v", ack)
	}

	// Rotation drops the retained bytes; the segment starts at pos.
	l.noteRotate([]byte("snap"))
	rv := l.view()
	if rv.base != v.pos || rv.pos != v.pos || len(rv.chunks) != 0 || rv.epoch != v.epoch+1 {
		t.Fatalf("after rotate: base %d pos %d, %d chunks, epoch %d", rv.base, rv.pos, len(rv.chunks), rv.epoch)
	}
	l.appendLocal([]byte("tail"))
	if got := streamBytes(l.view(), rv.base); string(got) != "tail" {
		t.Fatalf("after rotate, stream reads %q", got)
	}
	// A fetch from before the segment is answered with a reset to it.
	if ack := n.serveFetchLocked(&wire.RepMsg{Type: wire.RepFetch, Offset: 0}); !ack.Reset ||
		ack.Offset != rv.base || string(ack.Snapshot) != "snap" || string(ack.Data) != "tail" {
		t.Fatalf("fetch from before the segment answered %+v", ack)
	}
	// A follower's reset adopts the leader's segment with nothing retained.
	l.resetStream(42, nil)
	if fv := l.view(); fv.base != 42 || fv.pos != 42 || len(fv.chunks) != 0 || fv.snap != nil {
		t.Fatalf("after reset: base %d pos %d, %d chunks", fv.base, fv.pos, len(fv.chunks))
	}
	l.extend(want[:C+1])
	if got := streamBytes(l.view(), 42); !bytes.Equal(got, want[:C+1]) {
		t.Fatal("bytes extended after a reset diverge")
	}
}

// TestReplicaVoteRule pins the one-stream vote rule (voteLocked) on a bare
// node whose stream holds 100 bytes: a candidate at our position or past it
// is granted the vote, one a byte behind is refused, a vote spent on
// another candidate and a node that is leading refuse, the candidate we
// already voted for is granted again, and every reply carries our position.
func TestReplicaVoteRule(t *testing.T) {
	const term, mine = 3, 100
	for _, tc := range []struct {
		name   string
		setup  func(n *ReplicaNode)
		offset int64
		grant  bool
	}{
		{"at our offset", nil, mine, true},
		{"past our offset", nil, mine + 1, true},
		{"one byte behind", nil, mine - 1, false},
		{"vote spent on another", func(n *ReplicaNode) { n.votedFor = 2 }, mine + 1, false},
		{"vote spent on the candidate", func(n *ReplicaNode) { n.votedFor = 1 }, mine, true},
		{"leading", func(n *ReplicaNode) { n.role = roleLeader }, mine + 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := newRepLog(nil)
			l.appendLocal(make([]byte, mine))
			n := &ReplicaNode{log: l, term: term, votedFor: -1, leaderID: -1}
			if tc.setup != nil {
				tc.setup(n)
			}
			before := n.votedFor
			ack := n.voteLocked(&wire.RepMsg{Type: wire.RepVoteReq, Term: term, From: 1, Offset: tc.offset})
			if ack.OK != tc.grant || ack.Term != term {
				t.Fatalf("candidate at offset %d answered %+v, want granted=%v in term %d", tc.offset, ack, tc.grant, term)
			}
			if ack.Offset != mine {
				t.Fatalf("reply carries offset %d, want ours (%d)", ack.Offset, mine)
			}
			switch {
			case tc.grant && n.votedFor != 1:
				t.Fatalf("granted, but the vote went to %d", n.votedFor)
			case !tc.grant && n.votedFor != before:
				t.Fatalf("refused, but the vote moved from %d to %d", before, n.votedFor)
			}
		})
	}
}

// TestReplicaLogConcurrentViews appends on one goroutine while others take
// views and read them, as the per-peer senders do while the server
// journals: under -race this pins that a view's bytes are never written
// after it was taken, and every read matches what was appended.
func TestReplicaLogConcurrentViews(t *testing.T) {
	l := newRepLog(nil)
	const total = 3*repSendChunk + 1000
	byteAt := func(off int64) byte { return byte(off*7 + off>>9) }
	var wg sync.WaitGroup
	done := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var off int64
			for {
				v := l.view()
				for off < v.pos {
					piece := v.from(off)
					for i, b := range piece {
						if b != byteAt(off+int64(i)) {
							t.Errorf("reader %d: byte %d is %d, want %d", g, off+int64(i), b, byteAt(off+int64(i)))
							return
						}
					}
					off += int64(len(piece))
				}
				select {
				case <-done:
					if off == total {
						return
					}
				default:
				}
			}
		}(g)
	}
	var off int64
	p := make([]byte, 0, 9000)
	for off < total {
		n := min(int64(1+off%8999), total-off)
		p = p[:0]
		for i := int64(0); i < n; i++ {
			p = append(p, byteAt(off+i))
		}
		l.appendLocal(p) // p is reused: appendLocal must copy
		off += n
	}
	close(done)
	wg.Wait()
}
