package wire

import (
	"bytes"
	"errors"
	"testing"
)

// TestV4FrameRoundTrip round-trips what protocol v4 left in the frames — a
// post batch of several posts, the shape its per-lane batches had, and the
// coded response — through the real frame layer.
func TestV4FrameRoundTrip(t *testing.T) {
	req := Request{Type: ReqPostBatch, Session: 9, Seq: 4,
		Posts: []PostMsg{{Player: 3, Object: 7, Value: 1, Positive: true}, {Player: 3, Object: 9}}}
	var rbuf bytes.Buffer
	if err := EncodeRequest(&rbuf, &req); err != nil {
		t.Fatal(err)
	}
	gotReq, err := DecodeRequest(&rbuf)
	if err != nil {
		t.Fatal(err)
	}
	if !reqEqual(gotReq, &req) {
		t.Fatalf("post batch mangled: %+v != %+v", gotReq, req)
	}

	resp := Response{Round: 5, Code: CodeSessionExpired, Err: "player 3 already registered"}
	var buf bytes.Buffer
	if err := EncodeResponse(&buf, &resp); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResponse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Code != CodeSessionExpired || got.Round != 5 || got.Err != resp.Err {
		t.Fatalf("v4 response mangled: %+v", got)
	}
}

// TestResponseErrorWrapsSentinels pins the error contract: a coded error
// response unwraps to its sentinel via errors.Is, an uncoded one stays a
// plain error, and a code with no Err text is not an error at all.
func TestResponseErrorWrapsSentinels(t *testing.T) {
	cases := []struct {
		code     uint8
		sentinel error
	}{
		{CodeSessionExpired, ErrSessionExpired},
		{CodeBarrierDeadline, ErrBarrierDeadline},
	}
	for _, c := range cases {
		err := (&Response{Err: "boom", Code: c.code}).Error()
		if !errors.Is(err, c.sentinel) {
			t.Fatalf("code %d error %v does not wrap %v", c.code, err, c.sentinel)
		}
	}
	if err := (&Response{Err: "boom"}).Error(); errors.Is(err, ErrSessionExpired) || errors.Is(err, ErrBarrierDeadline) {
		t.Fatalf("uncoded error %v wrongly matches a sentinel", err)
	}
	if err := (&Response{Code: CodeSessionExpired}).Error(); err != nil {
		t.Fatalf("code without Err text produced error %v", err)
	}
}
