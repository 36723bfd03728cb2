package wire

import (
	"bytes"
	"cmp"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func TestReqTypeStrings(t *testing.T) {
	named := map[ReqType]string{
		ReqHello:        "hello",
		ReqVotedObjects: "voted-objects",
		ReqVoteCount:    "vote-count",
		ReqNegCount:     "neg-count",
		ReqWindow:       "window",
		ReqDone:         "done",
		ReqPostBatch:    "post-batch",
		ReqProbeBatch:   "probe-batch",
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

// fill sets every exported field of v, recursively, to a distinct non-zero
// value drawn from *next: ints alternate in sign and span several varint
// bytes, slices and byte slices get two entries, maps two pairs. A field of
// a kind fill does not know fails the test rather than stay zero.
func fill(v reflect.Value, next *int) {
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			fill(v.Field(i), next)
		}
		return
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := range s.Len() {
			fill(s.Index(i), next)
		}
		v.Set(s)
		return
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		for range 2 {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fill(k, next)
			fill(e, next)
			m.SetMapIndex(k, e)
		}
		v.Set(m)
		return
	}
	*next++
	n := int64(*next)
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(n * 1_000_003 * (1 - 2*(n%2)))
	case reflect.Uint8:
		v.SetUint(uint64(n))
	case reflect.Uint64:
		v.SetUint(uint64(n) << 40)
	case reflect.Float64:
		v.SetFloat(float64(n) + 0.25)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", n))
	default:
		panic(fmt.Sprintf("fill: no value for a %s field", v.Kind()))
	}
}

// framedKinds holds a zero value of each framed message.
var framedKinds = []any{&Request{}, &Response{}, &RepMsg{}, &RepAck{}}

// filled returns a new value of like's message type with every field set.
func filled(like any) any {
	v := reflect.New(reflect.TypeOf(like).Elem())
	next := 0
	fill(v.Elem(), &next)
	return ascending(v.Interface())
}

// ascending sorts a filled Response's Counts by object, the order the codec
// requires: fill alternates signs, so the objects it draws may descend.
func ascending(msg any) any {
	if r, ok := msg.(*Response); ok {
		slices.SortFunc(r.Counts, func(a, b CountMsg) int { return cmp.Compare(a.Object, b.Object) })
	}
	return msg
}

// encodeMsg writes one framed message of any kind on enc.
func encodeMsg(enc *StreamEncoder, v any) error {
	switch m := v.(type) {
	case *Request:
		return enc.EncodeRequest(m)
	case *Response:
		return enc.EncodeResponse(m)
	case *RepMsg:
		return enc.EncodeRep(m)
	case *RepAck:
		return enc.EncodeRepAck(m)
	}
	panic(fmt.Sprintf("encodeMsg: %T is not a framed message", v))
}

// decodeMsg reads one message of like's kind from dec into a new value.
func decodeMsg(dec *StreamDecoder, like any) (any, error) {
	switch like.(type) {
	case *Request:
		var m Request
		return &m, dec.DecodeRequest(&m)
	case *Response:
		var m Response
		return &m, dec.DecodeResponse(&m)
	case *RepMsg:
		var m RepMsg
		return &m, dec.DecodeRep(&m)
	case *RepAck:
		var m RepAck
		return &m, dec.DecodeRepAck(&m)
	}
	panic(fmt.Sprintf("decodeMsg: %T is not a framed message", like))
}

// encodeStream writes msgs as one connection's stream of frames.
func encodeStream[T any](tb testing.TB, msgs []T) []byte {
	tb.Helper()
	var buf bytes.Buffer
	enc := NewStreamEncoder(&buf)
	for i := range msgs {
		if err := encodeMsg(enc, &msgs[i]); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestCodecCoversEveryField round-trips each framed message with every
// exported field set, then with each top-level field alone set: a field the
// codec leaves out comes back zero, and two fields it swaps come back
// swapped. Every value crosses one stream encoder/decoder pair; requests and
// responses also cross the stateless helpers.
func TestCodecCoversEveryField(t *testing.T) {
	for _, like := range framedKinds {
		typ := reflect.TypeOf(like).Elem()
		want := []any{filled(like)}
		for i := range typ.NumField() {
			v := reflect.New(typ)
			next := 0
			fill(v.Elem().Field(i), &next)
			want = append(want, ascending(v.Interface()))
		}

		var buf bytes.Buffer
		enc := NewStreamEncoder(&buf)
		for _, w := range want {
			if err := encodeMsg(enc, w); err != nil {
				t.Fatalf("%s: encode: %v", typ.Name(), err)
			}
		}
		dec := NewRepStreamDecoder(&buf)
		for i, w := range want {
			got, err := decodeMsg(dec, like)
			if err != nil || !reflect.DeepEqual(got, w) {
				t.Fatalf("%s value %d through the stream codec: %v\ngot  %+v\nwant %+v", typ.Name(), i, err, got, w)
			}
		}

		for i, w := range want {
			var got any
			var err error
			buf.Reset()
			switch m := w.(type) {
			case *Request:
				if err = EncodeRequest(&buf, m); err == nil {
					got, err = DecodeRequest(&buf)
				}
			case *Response:
				if err = EncodeResponse(&buf, m); err == nil {
					got, err = DecodeResponse(&buf)
				}
			default:
				continue // replica links have only the stream codec
			}
			if err != nil || !reflect.DeepEqual(got, w) {
				t.Fatalf("%s value %d through the stateless helpers: %v\ngot  %+v\nwant %+v", typ.Name(), i, err, got, w)
			}
		}
	}
}

var update = flag.Bool("update", false, "rewrite testdata/frames.golden")

// TestFrameGolden pins the v11 format: one populated frame of each message
// kind, in the order request, response, replica message, replica ack, must
// encode to the committed bytes and decode back from them.
func TestFrameGolden(t *testing.T) {
	const path = "testdata/frames.golden"
	var buf bytes.Buffer
	enc := NewStreamEncoder(&buf)
	for _, like := range framedKinds {
		if err := encodeMsg(enc, filled(like)); err != nil {
			t.Fatal(err)
		}
	}
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -run TestFrameGolden -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatalf("encoded frames differ from %s:\ngot  %x\nwant %x", path, buf.Bytes(), golden)
	}
	dec := NewRepStreamDecoder(bytes.NewReader(golden))
	for _, like := range framedKinds {
		got, err := decodeMsg(dec, like)
		if want := filled(like); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("decoding %s: %v\ngot  %+v\nwant %+v", path, err, got, want)
		}
	}
}

// TestHelloCostRule pins the v14 cost table: an empty table reads 1
// everywhere, any other its own entries, and a table that is neither empty
// nor one cost per object is refused.
func TestHelloCostRule(t *testing.T) {
	table := []float64{1, 2, 1, 2, 0.5}
	for i, want := range table {
		if Cost(nil, i) != 1 || Cost(table, i) != want {
			t.Fatalf("object %d: cost %v without a table, %v with %v", i, Cost(nil, i), Cost(table, i), table)
		}
	}
	for _, c := range []struct {
		costs []float64
		ok    bool
	}{{nil, true}, {table, true}, {table[:2], false}, {append(table, 1), false}} {
		err := (&Response{M: 5, Costs: c.costs}).CheckHello()
		if (err == nil) != c.ok {
			t.Fatalf("%d costs for 5 objects: CheckHello = %v", len(c.costs), err)
		}
	}
}

// TestCheckFitsNamesTheLimit: an answer whose frame would exceed MaxFrame
// is refused with an error naming the limit, and the largest that fits at
// any round is accepted.
func TestCheckFitsNamesTheLimit(t *testing.T) {
	big := &Response{Costs: make([]float64, MaxFrame)} // a zero cost is one byte
	if err := big.CheckFits(); err == nil || !strings.Contains(err.Error(), "wire.MaxFrame") {
		t.Fatalf("CheckFits = %v, want the frame limit named", err)
	}
	fits := &Response{Round: math.MinInt}
	// The count takes three bytes where an empty table's takes one.
	fits.Costs = make([]float64, MaxFrame-fits.size()-2)
	if err := fits.CheckFits(); err != nil {
		t.Fatalf("%d costs: %v", len(fits.Costs), err)
	}
	fits.Costs = append(fits.Costs, 0)
	if err := fits.CheckFits(); err == nil {
		t.Fatalf("%d costs fit", len(fits.Costs))
	}
}

// TestEncodeResponseRefusesOversizedAnswer: an answer too large for one
// frame goes out as an error response naming the limit, under its round,
// and the stream stays in step for the next answer.
func TestEncodeResponseRefusesOversizedAnswer(t *testing.T) {
	big := &Response{Objects: make([]int, MaxFrame), Round: 9} // a zero id is one byte
	var buf bytes.Buffer
	enc := NewStreamEncoder(&buf)
	if err := enc.EncodeResponse(big); err != nil {
		t.Fatal(err)
	}
	if err := enc.EncodeResponse(&Response{Count: 3, Round: 9}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > 256 {
		t.Fatalf("the refusal and the next answer took %d bytes", buf.Len())
	}
	dec := NewStreamDecoder(&buf)
	var got Response
	if err := dec.DecodeResponse(&got); err != nil {
		t.Fatal(err)
	}
	if err := got.Error(); err == nil || !strings.Contains(err.Error(), "wire.MaxFrame") || got.Round != 9 || got.Objects != nil {
		t.Fatalf("oversized answer decoded as %+v (%v), want a refusal naming the limit", got, err)
	}
	if err := dec.DecodeResponse(&got); err != nil || got.Err != "" || got.Count != 3 {
		t.Fatalf("next answer decoded as %+v, %v", got, err)
	}
}
