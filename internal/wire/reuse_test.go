package wire

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"
)

// batchFrames returns a post batch, a probe batch and a vote batch of n
// entries each.
func batchFrames(n int) []Request {
	posts := make([]PostMsg, n)
	probes := make([]ProbeMsg, n)
	players := make([]int, n)
	for i := range n {
		posts[i] = PostMsg{Player: i, Object: 3 * i, Value: float64(i) / 4, Positive: i%2 == 0}
		probes[i] = ProbeMsg{Player: i, Object: 5 * i}
		players[i] = 7 * i
	}
	return []Request{
		{Type: ReqPostBatch, Session: 9, Seq: 1, Posts: posts, EndRound: true, Epoch: 2},
		{Type: ReqProbeBatch, Session: 9, Seq: 2, Probes: probes},
		{Type: ReqVoteBatch, Session: 9, Seq: 3, Players: players},
	}
}

// TestDecodeRequestReusesEntryArrays pins the decoder's reuse: once a
// decoder has decoded a post batch, a probe batch and a vote batch, decoding
// the same frames again allocates nothing.
func TestDecodeRequestReusesEntryArrays(t *testing.T) {
	const runs = 50
	frames := batchFrames(256)
	one := encodeStream(t, frames)
	dec := NewStreamDecoder(bufio.NewReader(bytes.NewReader(bytes.Repeat(one, runs+1))))
	var req Request
	allocs := testing.AllocsPerRun(runs, func() {
		for range frames {
			if err := dec.DecodeRequest(&req); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("decoding the batch frames again allocated %v objects, want 0", allocs)
	}
	if last := frames[len(frames)-1]; !reflect.DeepEqual(req, last) {
		t.Fatalf("last frame decoded as %+v, want %+v", req, last)
	}
}

// TestDecodeRequestShortAfterLong pins the ownership rule's other half: a
// request decoded into a reused array holds exactly its own entries, and
// the lists its frame leaves empty are nil, as on a fresh decoder.
func TestDecodeRequestShortAfterLong(t *testing.T) {
	long, short := batchFrames(64), batchFrames(3)
	stream := encodeStream(t, append(long, short...))
	dec := NewStreamDecoder(bytes.NewReader(stream))
	var req Request
	for _, want := range append(long, short...) {
		if err := dec.DecodeRequest(&req); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(req, want) {
			t.Fatalf("decoded %+v, want %+v", req, want)
		}
	}
}

// answerFrames returns a probe-result answer, a vote answer and a window
// answer of n entries each, and an arrival's answer, which has none.
func answerFrames(n int) []Response {
	results := make([]ProbeRes, n)
	votes := make([]VoteMsg, n)
	counts := make([]CountMsg, n)
	for i := range n {
		results[i] = ProbeRes{Value: float64(i % 3), Good: i%2 == 0}
		votes[i] = VoteMsg{Player: i, Object: 3 * i, Round: 4, Value: float64(i) / 8}
		counts[i] = CountMsg{Object: 2 * i, Count: 1 + i%5}
	}
	return []Response{
		{Round: 4, ProbeResults: results},
		{Round: 4, Votes: votes},
		{Round: 4, Counts: counts},
		{Round: 5},
	}
}

// TestDecodeResponseReusesEntryArrays pins the response half of the
// ownership rule: once one Response has held a 256-entry probe-result
// answer, a 256-entry vote answer and a 256-entry window answer, decoding
// them into it again allocates nothing, an answer with none of the lists
// in between included.
func TestDecodeResponseReusesEntryArrays(t *testing.T) {
	const runs = 50
	frames := answerFrames(256)
	one := encodeStream(t, frames)
	dec := NewStreamDecoder(bufio.NewReader(bytes.NewReader(bytes.Repeat(one, runs+1))))
	var resp Response
	allocs := testing.AllocsPerRun(runs, func() {
		for range frames {
			if err := dec.DecodeResponse(&resp); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("decoding the answers again allocated %v objects, want 0", allocs)
	}
	if len(resp.ProbeResults) != 0 || len(resp.Votes) != 0 || len(resp.Counts) != 0 || resp.Round != 5 {
		t.Fatalf("last answer decoded as %+v, want round 5 and no entries", resp)
	}
}

// TestDecodeResponseShortAfterLong: an answer decoded into a Response that
// held a longer one holds exactly its own entries, so it re-encodes to its
// own frame.
func TestDecodeResponseShortAfterLong(t *testing.T) {
	frames := append(answerFrames(64), answerFrames(3)...)
	dec := NewStreamDecoder(bytes.NewReader(encodeStream(t, frames)))
	var resp Response
	for i := range frames {
		if err := dec.DecodeResponse(&resp); err != nil {
			t.Fatal(err)
		}
		if got, want := encodeStream(t, []Response{resp}), encodeStream(t, frames[i:i+1]); !bytes.Equal(got, want) {
			t.Fatalf("answer %d decoded as %+v, want %+v", i, resp, frames[i])
		}
	}
}
