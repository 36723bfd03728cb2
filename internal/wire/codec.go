package wire

// The frame codec (since protocol v11). Every frame is a uvarint payload length
// followed by the payload: one kind byte naming the message, then each of
// the message's fields in declaration order, none omitted, in the canonical
// encoding of internal/codec: a uint8 kind or code is one byte, and the
// Counts map a count and its pairs in ascending key order. A frame that
// decodes re-encodes to the same bytes.
//
// The encoder sizes each frame exactly before appending it, so its buffer
// grows only to the exact size of the largest frame, never by append's
// steps, and each frame goes out in one Write. The parser checks every
// length against the bytes left before it allocates, and copies every string
// and byte slice out of the frame, so the decoder can reuse its frame
// buffer. A stream decoder also decodes each request's entry lists into the
// previous request's arrays (see the package doc's ownership rule).

import (
	"encoding/binary"
	"slices"

	"repro/internal/codec"
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
	minPost       = 4 // Object, Value, Positive, Player
	minProbe      = 2 // Player, Object
	minProbeRes   = 2 // Value, Good
	minVote       = 4 // Player, Object, Round, Value
	minCountsPair = 2 // key, value
)

func (r *Request) size() int {
	n := 2 + codec.UvarintSize(r.Session) + codec.UvarintSize(r.Seq) + codec.IntSize(r.Player) +
		codec.BytesSize(r.Token) + codec.IntSize(r.Version) + codec.IntSize(r.Object) +
		codec.IntSize(r.From) + codec.IntSize(r.To) + codec.IntSize(r.Last) + codec.CountSize(r.Posts)
	for i := range r.Posts {
		q := &r.Posts[i]
		n += codec.IntSize(q.Object) + codec.FloatSize(q.Value) + 1 + codec.IntSize(q.Player)
	}
	n += 2 + codec.IntSize(r.PlayerTo) + codec.CountSize(r.Probes)
	for _, q := range r.Probes {
		n += codec.IntSize(q.Player) + codec.IntSize(q.Object)
	}
	return n + codec.VarintsSize(r.Players) + codec.IntSize(r.Epoch)
}

func (r *Request) appendTo(b []byte) []byte {
	b = append(b, kindRequest, byte(r.Type))
	b = binary.AppendUvarint(b, r.Session)
	b = binary.AppendUvarint(b, r.Seq)
	b = codec.AppendInt(b, r.Player)
	b = codec.AppendBytes(b, r.Token)
	b = codec.AppendInt(b, r.Version)
	b = codec.AppendInt(b, r.Object)
	b = codec.AppendInt(b, r.From)
	b = codec.AppendInt(b, r.To)
	b = codec.AppendInt(b, r.Last)
	b = codec.AppendCount(b, r.Posts)
	for i := range r.Posts {
		q := &r.Posts[i]
		b = codec.AppendInt(b, q.Object)
		b = codec.AppendFloat(b, q.Value)
		b = codec.AppendBool(b, q.Positive)
		b = codec.AppendInt(b, q.Player)
	}
	b = codec.AppendBool(b, r.EndRound)
	b = codec.AppendBool(b, r.Swarm)
	b = codec.AppendInt(b, r.PlayerTo)
	b = codec.AppendCount(b, r.Probes)
	for _, q := range r.Probes {
		b = codec.AppendInt(b, q.Player)
		b = codec.AppendInt(b, q.Object)
	}
	b = codec.AppendVarints(b, r.Players)
	return codec.AppendInt(b, r.Epoch)
}

// parse fills r. Its entry slices are decoded into the arrays r.Posts,
// r.Probes and r.Players hold on entry (nil for fresh ones), grown when too
// small; a list with no entries decodes as nil.
func (r *Request) parse(p *codec.Parser) {
	r.Type = ReqType(p.Byte())
	r.Session = p.Uvarint()
	r.Seq = p.Uvarint()
	r.Player = p.Int()
	r.Token = p.Str()
	r.Version = p.Int()
	r.Object = p.Int()
	r.From = p.Int()
	r.To = p.Int()
	r.Last = p.Int()
	r.Posts = reuse(r.Posts, p.Count(minPost))
	for i := range r.Posts {
		q := &r.Posts[i]
		q.Object = p.Int()
		q.Value = p.Float()
		q.Positive = p.Bool()
		q.Player = p.Int()
	}
	r.EndRound = p.Bool()
	r.Swarm = p.Bool()
	r.PlayerTo = p.Int()
	r.Probes = reuse(r.Probes, p.Count(minProbe))
	for i := range r.Probes {
		r.Probes[i] = ProbeMsg{Player: p.Int(), Object: p.Int()}
	}
	r.Players = reuse(r.Players, p.Count(1))
	for i := range r.Players {
		r.Players[i] = p.Int()
	}
	r.Epoch = p.Int()
}

// reuse returns a slice of n entries backed by s's array when it is large
// enough, a fresh one otherwise, and nil for n == 0.
func reuse[T any](s []T, n int) []T {
	switch {
	case n == 0:
		return nil
	case cap(s) < n:
		return make([]T, n)
	}
	return s[:n]
}

func (r *Response) size() int {
	n := 1 + codec.BytesSize(r.Err) + 1 + codec.IntSize(r.N) + codec.IntSize(r.M) + 1 +
		codec.FloatSize(r.Alpha) + codec.FloatSize(r.Beta) + codec.CountSize(r.Costs)
	for _, c := range r.Costs {
		n += codec.FloatSize(c)
	}
	n += codec.CountSize(r.Votes)
	for i := range r.Votes {
		v := &r.Votes[i]
		n += codec.IntSize(v.Player) + codec.IntSize(v.Object) + codec.IntSize(v.Round) + codec.FloatSize(v.Value)
	}
	n += codec.VarintsSize(r.Objects) + codec.IntSize(r.Count) + codec.UvarintSize(uint64(len(r.Counts)))
	for k, v := range r.Counts {
		n += codec.IntSize(k) + codec.IntSize(v)
	}
	n += codec.IntSize(r.Round) + codec.BytesSize(r.Leader) + codec.CountSize(r.ProbeResults)
	for _, q := range r.ProbeResults {
		n += codec.FloatSize(q.Value) + 1
	}
	return n
}

func (r *Response) appendTo(b []byte) []byte {
	b = append(b, kindResponse)
	b = codec.AppendBytes(b, r.Err)
	b = append(b, r.Code)
	b = codec.AppendInt(b, r.N)
	b = codec.AppendInt(b, r.M)
	b = codec.AppendBool(b, r.LocalTesting)
	b = codec.AppendFloat(b, r.Alpha)
	b = codec.AppendFloat(b, r.Beta)
	b = codec.AppendCount(b, r.Costs)
	for _, c := range r.Costs {
		b = codec.AppendFloat(b, c)
	}
	b = codec.AppendCount(b, r.Votes)
	for i := range r.Votes {
		v := &r.Votes[i]
		b = codec.AppendInt(b, v.Player)
		b = codec.AppendInt(b, v.Object)
		b = codec.AppendInt(b, v.Round)
		b = codec.AppendFloat(b, v.Value)
	}
	b = codec.AppendVarints(b, r.Objects)
	b = codec.AppendInt(b, r.Count)
	b = binary.AppendUvarint(b, uint64(len(r.Counts)))
	if len(r.Counts) > 0 {
		keys := make([]int, 0, len(r.Counts))
		for k := range r.Counts {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			b = codec.AppendInt(b, k)
			b = codec.AppendInt(b, r.Counts[k])
		}
	}
	b = codec.AppendInt(b, r.Round)
	b = codec.AppendBytes(b, r.Leader)
	b = codec.AppendCount(b, r.ProbeResults)
	for _, q := range r.ProbeResults {
		b = codec.AppendFloat(b, q.Value)
		b = codec.AppendBool(b, q.Good)
	}
	return b
}

func (r *Response) parse(p *codec.Parser) {
	r.Err = p.Str()
	r.Code = p.Byte()
	r.N = p.Int()
	r.M = p.Int()
	r.LocalTesting = p.Bool()
	r.Alpha = p.Float()
	r.Beta = p.Float()
	r.Costs = p.Floats()
	if n := p.Count(minVote); n > 0 {
		r.Votes = make([]VoteMsg, n)
		for i := range r.Votes {
			r.Votes[i] = VoteMsg{Player: p.Int(), Object: p.Int(), Round: p.Int(), Value: p.Float()}
		}
	}
	r.Objects = codec.ParseVarints[int](p)
	r.Count = p.Int()
	if n := p.Count(minCountsPair); n > 0 {
		r.Counts = make(map[int]int, n)
		for i, prev := 0, 0; i < n; i++ {
			k := p.Int()
			if i > 0 && k <= prev {
				p.Fail("counts key %d after %d", k, prev)
			}
			r.Counts[k], prev = p.Int(), k
		}
	}
	r.Round = p.Int()
	r.Leader = p.Str()
	if n := p.Count(minProbeRes); n > 0 {
		r.ProbeResults = make([]ProbeRes, n)
		for i := range r.ProbeResults {
			r.ProbeResults[i] = ProbeRes{Value: p.Float(), Good: p.Bool()}
		}
	}
}

func (m *RepMsg) size() int {
	return 2 + codec.UvarintSize(m.Term) + codec.IntSize(m.From) + codec.VarintSize(m.Offset) +
		codec.BytesSize(m.Data) + codec.BytesSize(m.Snapshot)
}

func (m *RepMsg) appendTo(b []byte) []byte {
	b = append(b, kindRep, byte(m.Type))
	b = binary.AppendUvarint(b, m.Term)
	b = codec.AppendInt(b, m.From)
	b = binary.AppendVarint(b, m.Offset)
	b = codec.AppendBytes(b, m.Data)
	return codec.AppendBytes(b, m.Snapshot)
}

// parse fills m, decoding Data into the buffer m.Data holds on entry.
func (m *RepMsg) parse(p *codec.Parser) {
	m.Type = RepType(p.Byte())
	m.Term = p.Uvarint()
	m.From = p.Int()
	m.Offset = p.Int64()
	m.Data = p.Bytes(m.Data)
	m.Snapshot = p.Bytes(nil)
}

func (a *RepAck) size() int {
	return 1 + 1 + codec.UvarintSize(a.Term) + codec.VarintSize(a.Offset) + codec.BytesSize(a.Data) + codec.BytesSize(a.Snapshot) + 1 + codec.BytesSize(a.Err)
}

func (a *RepAck) appendTo(b []byte) []byte {
	b = append(b, kindRepAck)
	b = codec.AppendBool(b, a.OK)
	b = binary.AppendUvarint(b, a.Term)
	b = binary.AppendVarint(b, a.Offset)
	b = codec.AppendBytes(b, a.Data)
	b = codec.AppendBytes(b, a.Snapshot)
	b = codec.AppendBool(b, a.Reset)
	return codec.AppendBytes(b, a.Err)
}

func (a *RepAck) parse(p *codec.Parser) {
	a.OK = p.Bool()
	a.Term = p.Uvarint()
	a.Offset = p.Int64()
	a.Data = p.Bytes(nil)
	a.Snapshot = p.Bytes(nil)
	a.Reset = p.Bool()
	a.Err = p.Str()
}
