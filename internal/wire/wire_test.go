package wire

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"
)

func TestReqTypeStrings(t *testing.T) {
	named := map[ReqType]string{
		ReqHello:        "hello",
		ReqProbe:        "probe",
		ReqPost:         "post",
		ReqVotes:        "votes",
		ReqVotedObjects: "voted-objects",
		ReqVoteCount:    "vote-count",
		ReqNegCount:     "neg-count",
		ReqWindow:       "window",
		ReqDone:         "done",
		ReqPostBatch:    "post-batch",
		ReqProbeBatch:   "probe-batch",
		ReqSwarmDone:    "swarm-done",
		ReqVoteBatch:    "vote-batch",
		ReqEpoch:        "epoch",
	}
	for typ, want := range named {
		if got := typ.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", typ, got, want)
		}
	}
	if !strings.Contains(ReqType(200).String(), "200") {
		t.Fatal("unknown type should include the number")
	}
}

func TestResponseError(t *testing.T) {
	if err := (&Response{}).Error(); err != nil {
		t.Fatalf("empty Err produced error %v", err)
	}
	err := (&Response{Err: "boom"}).Error()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("error = %v", err)
	}
}

func TestGobRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	dec := gob.NewDecoder(&buf)

	req := Request{
		Type: ReqWindow, Player: 3, Token: "t", Object: 7,
		Value: 0.5, Positive: true, OfPlayer: 2, From: 10, To: 20,
		Posts:    []PostMsg{{Object: 1, Value: 2, Positive: true}},
		EndRound: true,
	}
	if err := enc.Encode(&req); err != nil {
		t.Fatal(err)
	}
	var gotReq Request
	if err := dec.Decode(&gotReq); err != nil {
		t.Fatal(err)
	}
	if gotReq.Type != req.Type || gotReq.Player != req.Player || gotReq.Token != req.Token ||
		gotReq.Object != req.Object || gotReq.Value != req.Value || gotReq.Positive != req.Positive ||
		gotReq.OfPlayer != req.OfPlayer || gotReq.From != req.From || gotReq.To != req.To ||
		!gotReq.EndRound || len(gotReq.Posts) != 1 || gotReq.Posts[0] != req.Posts[0] {
		t.Fatalf("request round-trip: %+v != %+v", gotReq, req)
	}

	resp := Response{
		N: 4, M: 8, LocalTesting: true, Alpha: 0.5, Beta: 0.25,
		Costs:  []float64{1, 2},
		Votes:  []VoteMsg{{Player: 1, Object: 2, Round: 3, Value: 4}},
		Counts: map[int]int{5: 6},
		Round:  9,
	}
	if err := enc.Encode(&resp); err != nil {
		t.Fatal(err)
	}
	var gotResp Response
	if err := dec.Decode(&gotResp); err != nil {
		t.Fatal(err)
	}
	if gotResp.N != 4 || gotResp.M != 8 || !gotResp.LocalTesting ||
		len(gotResp.Costs) != 2 || len(gotResp.Votes) != 1 ||
		gotResp.Counts[5] != 6 || gotResp.Round != 9 {
		t.Fatalf("response round-trip mangled: %+v", gotResp)
	}
}
