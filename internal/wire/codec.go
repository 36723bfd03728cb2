package wire

// The frame codec (protocol v11). Every frame is a uvarint payload length
// followed by the payload: one kind byte naming the message, then each of
// the message's fields in declaration order, none omitted. Integers are
// zigzag varints, unsigned integers uvarints, bools and the uint8 kinds and
// codes one byte, floats gob's byte-reversed bit pattern as a uvarint (so 0
// and small integers take one to three bytes), strings and byte slices a
// uvarint length and their bytes, slices a uvarint count and their entries,
// and the Counts map a count and its pairs in ascending key order. Every
// varint is minimal and every bool is 0 or 1, so a value has exactly one
// encoding: a frame that decodes re-encodes to the same bytes.
//
// The encoder sizes each frame exactly before appending it, so its buffer
// grows only to the exact size of the largest frame, never by append's
// steps, and each frame goes out in one Write. The parser checks every
// length against the bytes left before it allocates, and copies every string
// and byte slice out of the frame, so the decoder can reuse its frame
// buffer.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Frame kinds, the payload's first byte: a frame read by the wrong decoder
// (a request on a replica link, a message where an ack belongs) is refused
// instead of misparsed.
const (
	kindRequest byte = iota + 1
	kindResponse
	kindRep
	kindRepAck
)

// Minimum encoded sizes of slice entries: a declared count is checked
// against the bytes left divided by these before anything is allocated.
const (
	minPost       = 5 // Object, Value, Positive, Index, Player
	minProbe      = 2 // Player, Object
	minProbeRes   = 2 // Value, Good
	minVote       = 4 // Player, Object, Round, Value
	minCountsPair = 2 // key, value
)

func uvarintSize(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func varintSize(x int64) int { return uvarintSize(uint64(x<<1) ^ uint64(x>>63)) }

func intSize(x int) int { return varintSize(int64(x)) }

// floatBits is gob's float layout: the bit pattern byte-reversed, so the
// exponent lands in the low bytes and a uvarint of it stays short.
func floatBits(f float64) uint64 { return bits.ReverseBytes64(math.Float64bits(f)) }

func floatSize(f float64) int              { return uvarintSize(floatBits(f)) }
func bytesSize[T string | []byte](s T) int { return uvarintSize(uint64(len(s))) + len(s) }
func countSize[T any](s []T) int           { return uvarintSize(uint64(len(s))) }

func varintsSize[T int | int64](s []T) int {
	n := countSize(s)
	for _, v := range s {
		n += varintSize(int64(v))
	}
	return n
}

func appendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

func appendFloat(b []byte, f float64) []byte { return binary.AppendUvarint(b, floatBits(f)) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendBytes[T string | []byte](b []byte, s T) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendCount[T any](b []byte, s []T) []byte { return binary.AppendUvarint(b, uint64(len(s))) }

func appendVarints[T int | int64](b []byte, s []T) []byte {
	b = appendCount(b, s)
	for _, v := range s {
		b = binary.AppendVarint(b, int64(v))
	}
	return b
}

// parser reads one frame's payload. The first error is kept and empties the
// input, so every later read fails at once and returns a zero value; the
// caller checks err once at the end.
type parser struct {
	b   []byte
	err error
}

func (p *parser) fail(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf("wire: "+format, args...)
	}
	p.b = nil
}

func (p *parser) uvarint() uint64 {
	b := p.b
	if len(b) > 0 && b[0] < 0x80 {
		p.b = b[1:]
		return uint64(b[0])
	}
	if len(b) > 1 && b[1] < 0x80 && b[1] != 0 {
		p.b = b[2:]
		return uint64(b[0]&0x7f) | uint64(b[1])<<7
	}
	return p.uvarintLong()
}

// uvarintLong reads a uvarint of three or more bytes, or fails.
func (p *parser) uvarintLong() uint64 {
	v, n := binary.Uvarint(p.b)
	switch {
	case n == 0:
		p.fail("torn frame")
		return 0
	case n < 0 || p.b[n-1] == 0:
		p.fail("overlong varint")
		return 0
	}
	p.b = p.b[n:]
	return v
}

func (p *parser) int64() int64 {
	u := p.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (p *parser) int() int { return int(p.int64()) }

func (p *parser) float() float64 {
	return math.Float64frombits(bits.ReverseBytes64(p.uvarint()))
}

func (p *parser) byte() byte {
	if len(p.b) == 0 {
		p.fail("torn frame")
		return 0
	}
	c := p.b[0]
	p.b = p.b[1:]
	return c
}

func (p *parser) bool() bool {
	switch c := p.byte(); c {
	case 0, 1:
		return c == 1
	default:
		p.fail("bool byte %#x", c)
		return false
	}
}

// count reads a slice or map length and refuses one that the bytes left
// cannot hold at min bytes an entry, so a hostile count allocates nothing.
func (p *parser) count(min int) int {
	n := p.uvarint()
	if n > uint64(len(p.b)/min) {
		p.fail("%d entries declared with %d bytes left", n, len(p.b))
		return 0
	}
	return int(n)
}

func (p *parser) string() string {
	n := p.count(1)
	s := string(p.b[:n])
	p.b = p.b[n:]
	return s
}

// bytes appends a length-prefixed byte slice to dst[:0]: nil for an empty
// one when dst is nil, a copy of the frame's bytes otherwise.
func (p *parser) bytes(dst []byte) []byte {
	n := p.count(1)
	dst = append(dst[:0], p.b[:n]...)
	p.b = p.b[n:]
	return dst
}

func parseVarints[T int | int64](p *parser) []T {
	n := p.count(1)
	if n == 0 {
		return nil
	}
	s := make([]T, n)
	for i := range s {
		s[i] = T(p.int64())
	}
	return s
}

func (p *parser) floats() []float64 {
	n := p.count(1)
	if n == 0 {
		return nil
	}
	s := make([]float64, n)
	for i := range s {
		s[i] = p.float()
	}
	return s
}

func (r *Request) size() int {
	n := 2 + uvarintSize(r.Session) + uvarintSize(r.Seq) + intSize(r.Player) +
		bytesSize(r.Token) + intSize(r.Version) + intSize(r.Object) +
		intSize(r.From) + intSize(r.To) + intSize(r.Last) + countSize(r.Posts)
	for i := range r.Posts {
		q := &r.Posts[i]
		n += intSize(q.Object) + floatSize(q.Value) + 1 + intSize(q.Index) + intSize(q.Player)
	}
	n += 1 + intSize(r.Shard) + 2 + intSize(r.PlayerTo) + countSize(r.Probes)
	for _, q := range r.Probes {
		n += intSize(q.Player) + intSize(q.Object)
	}
	return n + varintsSize(r.Players) + intSize(r.Epoch)
}

func (r *Request) appendTo(b []byte) []byte {
	b = append(b, kindRequest, byte(r.Type))
	b = binary.AppendUvarint(b, r.Session)
	b = binary.AppendUvarint(b, r.Seq)
	b = appendInt(b, r.Player)
	b = appendBytes(b, r.Token)
	b = appendInt(b, r.Version)
	b = appendInt(b, r.Object)
	b = appendInt(b, r.From)
	b = appendInt(b, r.To)
	b = appendInt(b, r.Last)
	b = appendCount(b, r.Posts)
	for i := range r.Posts {
		q := &r.Posts[i]
		b = appendInt(b, q.Object)
		b = appendFloat(b, q.Value)
		b = appendBool(b, q.Positive)
		b = appendInt(b, q.Index)
		b = appendInt(b, q.Player)
	}
	b = appendBool(b, r.EndRound)
	b = appendInt(b, r.Shard)
	b = appendBool(b, r.Lane)
	b = appendBool(b, r.Swarm)
	b = appendInt(b, r.PlayerTo)
	b = appendCount(b, r.Probes)
	for _, q := range r.Probes {
		b = appendInt(b, q.Player)
		b = appendInt(b, q.Object)
	}
	b = appendVarints(b, r.Players)
	return appendInt(b, r.Epoch)
}

func (r *Request) parse(p *parser) {
	r.Type = ReqType(p.byte())
	r.Session = p.uvarint()
	r.Seq = p.uvarint()
	r.Player = p.int()
	r.Token = p.string()
	r.Version = p.int()
	r.Object = p.int()
	r.From = p.int()
	r.To = p.int()
	r.Last = p.int()
	if n := p.count(minPost); n > 0 {
		r.Posts = make([]PostMsg, n)
		for i := range r.Posts {
			q := &r.Posts[i]
			q.Object = p.int()
			q.Value = p.float()
			q.Positive = p.bool()
			q.Index = p.int()
			q.Player = p.int()
		}
	}
	r.EndRound = p.bool()
	r.Shard = p.int()
	r.Lane = p.bool()
	r.Swarm = p.bool()
	r.PlayerTo = p.int()
	if n := p.count(minProbe); n > 0 {
		r.Probes = make([]ProbeMsg, n)
		for i := range r.Probes {
			r.Probes[i] = ProbeMsg{Player: p.int(), Object: p.int()}
		}
	}
	r.Players = parseVarints[int](p)
	r.Epoch = p.int()
}

func (r *Response) size() int {
	n := 1 + bytesSize(r.Err) + 1 + intSize(r.N) + intSize(r.M) + 1 +
		floatSize(r.Alpha) + floatSize(r.Beta) + countSize(r.Costs)
	for _, c := range r.Costs {
		n += floatSize(c)
	}
	n += countSize(r.Votes)
	for i := range r.Votes {
		v := &r.Votes[i]
		n += intSize(v.Player) + intSize(v.Object) + intSize(v.Round) + floatSize(v.Value)
	}
	n += varintsSize(r.Objects) + intSize(r.Count) + uvarintSize(uint64(len(r.Counts)))
	for k, v := range r.Counts {
		n += intSize(k) + intSize(v)
	}
	n += intSize(r.Round) + intSize(r.Shards) + bytesSize(r.Leader) + countSize(r.ProbeResults)
	for _, q := range r.ProbeResults {
		n += floatSize(q.Value) + 1
	}
	return n
}

func (r *Response) appendTo(b []byte) []byte {
	b = append(b, kindResponse)
	b = appendBytes(b, r.Err)
	b = append(b, r.Code)
	b = appendInt(b, r.N)
	b = appendInt(b, r.M)
	b = appendBool(b, r.LocalTesting)
	b = appendFloat(b, r.Alpha)
	b = appendFloat(b, r.Beta)
	b = appendCount(b, r.Costs)
	for _, c := range r.Costs {
		b = appendFloat(b, c)
	}
	b = appendCount(b, r.Votes)
	for i := range r.Votes {
		v := &r.Votes[i]
		b = appendInt(b, v.Player)
		b = appendInt(b, v.Object)
		b = appendInt(b, v.Round)
		b = appendFloat(b, v.Value)
	}
	b = appendVarints(b, r.Objects)
	b = appendInt(b, r.Count)
	b = binary.AppendUvarint(b, uint64(len(r.Counts)))
	if len(r.Counts) > 0 {
		keys := make([]int, 0, len(r.Counts))
		for k := range r.Counts {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			b = appendInt(b, k)
			b = appendInt(b, r.Counts[k])
		}
	}
	b = appendInt(b, r.Round)
	b = appendInt(b, r.Shards)
	b = appendBytes(b, r.Leader)
	b = appendCount(b, r.ProbeResults)
	for _, q := range r.ProbeResults {
		b = appendFloat(b, q.Value)
		b = appendBool(b, q.Good)
	}
	return b
}

func (r *Response) parse(p *parser) {
	r.Err = p.string()
	r.Code = p.byte()
	r.N = p.int()
	r.M = p.int()
	r.LocalTesting = p.bool()
	r.Alpha = p.float()
	r.Beta = p.float()
	r.Costs = p.floats()
	if n := p.count(minVote); n > 0 {
		r.Votes = make([]VoteMsg, n)
		for i := range r.Votes {
			r.Votes[i] = VoteMsg{Player: p.int(), Object: p.int(), Round: p.int(), Value: p.float()}
		}
	}
	r.Objects = parseVarints[int](p)
	r.Count = p.int()
	if n := p.count(minCountsPair); n > 0 {
		r.Counts = make(map[int]int, n)
		for i, prev := 0, 0; i < n; i++ {
			k := p.int()
			if i > 0 && k <= prev {
				p.fail("counts key %d after %d", k, prev)
			}
			r.Counts[k], prev = p.int(), k
		}
	}
	r.Round = p.int()
	r.Shards = p.int()
	r.Leader = p.string()
	if n := p.count(minProbeRes); n > 0 {
		r.ProbeResults = make([]ProbeRes, n)
		for i := range r.ProbeResults {
			r.ProbeResults[i] = ProbeRes{Value: p.float(), Good: p.bool()}
		}
	}
}

func (m *RepMsg) size() int {
	return 2 + uvarintSize(m.Term) + intSize(m.From) + intSize(m.Stream) +
		varintSize(m.Offset) + bytesSize(m.Data) + bytesSize(m.Snapshot) + varintsSize(m.Offsets)
}

func (m *RepMsg) appendTo(b []byte) []byte {
	b = append(b, kindRep, byte(m.Type))
	b = binary.AppendUvarint(b, m.Term)
	b = appendInt(b, m.From)
	b = appendInt(b, m.Stream)
	b = binary.AppendVarint(b, m.Offset)
	b = appendBytes(b, m.Data)
	b = appendBytes(b, m.Snapshot)
	return appendVarints(b, m.Offsets)
}

// parse fills m, decoding Data into the buffer m.Data holds on entry.
func (m *RepMsg) parse(p *parser) {
	m.Type = RepType(p.byte())
	m.Term = p.uvarint()
	m.From = p.int()
	m.Stream = p.int()
	m.Offset = p.int64()
	m.Data = p.bytes(m.Data)
	m.Snapshot = p.bytes(nil)
	m.Offsets = parseVarints[int64](p)
}

func (a *RepAck) size() int {
	return 1 + 1 + uvarintSize(a.Term) + varintSize(a.Offset) + varintsSize(a.Offsets) +
		bytesSize(a.Data) + bytesSize(a.Snapshot) + 1 + bytesSize(a.Err)
}

func (a *RepAck) appendTo(b []byte) []byte {
	b = append(b, kindRepAck)
	b = appendBool(b, a.OK)
	b = binary.AppendUvarint(b, a.Term)
	b = binary.AppendVarint(b, a.Offset)
	b = appendVarints(b, a.Offsets)
	b = appendBytes(b, a.Data)
	b = appendBytes(b, a.Snapshot)
	b = appendBool(b, a.Reset)
	return appendBytes(b, a.Err)
}

func (a *RepAck) parse(p *parser) {
	a.OK = p.bool()
	a.Term = p.uvarint()
	a.Offset = p.int64()
	a.Offsets = parseVarints[int64](p)
	a.Data = p.bytes(nil)
	a.Snapshot = p.bytes(nil)
	a.Reset = p.bool()
	a.Err = p.string()
}
