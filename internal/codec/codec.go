// Package codec is the canonical binary encoding shared by the wire frames
// (internal/wire) and the journal records (internal/journal): exact sizes,
// append encoders and a bounds-checked parser for each field type.
//
// Integers are zigzag varints, unsigned integers uvarints, bools one byte (0
// or 1), floats gob's byte-reversed bit pattern as a uvarint (so 0 and small
// integers take one to three bytes), strings and byte slices a uvarint length
// and their bytes, and slices a uvarint count and their entries. Every varint
// is minimal and every bool is 0 or 1, so a value has exactly one encoding: a
// payload that parses re-encodes to the same bytes.
package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// UvarintSize is the encoded size of x as a uvarint.
func UvarintSize(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// VarintSize is the encoded size of x as a zigzag varint.
func VarintSize(x int64) int { return UvarintSize(uint64(x<<1) ^ uint64(x>>63)) }

// IntSize is the encoded size of x as a zigzag varint.
func IntSize(x int) int { return VarintSize(int64(x)) }

// floatBits is gob's float layout: the bit pattern byte-reversed, so the
// exponent lands in the low bytes and a uvarint of it stays short.
func floatBits(f float64) uint64 { return bits.ReverseBytes64(math.Float64bits(f)) }

// FloatSize is the encoded size of f.
func FloatSize(f float64) int { return UvarintSize(floatBits(f)) }

// BytesSize is the encoded size of a length-prefixed string or byte slice.
func BytesSize[T string | []byte](s T) int { return UvarintSize(uint64(len(s))) + len(s) }

// CountSize is the encoded size of a slice's entry count.
func CountSize[T any](s []T) int { return UvarintSize(uint64(len(s))) }

// VarintsSize is the encoded size of a counted slice of varints.
func VarintsSize[T int | int64](s []T) int {
	n := CountSize(s)
	for _, v := range s {
		n += VarintSize(int64(v))
	}
	return n
}

// AppendInt appends v as a zigzag varint.
func AppendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

// AppendFloat appends f in gob's byte-reversed layout.
func AppendFloat(b []byte, f float64) []byte { return binary.AppendUvarint(b, floatBits(f)) }

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendBytes appends a length-prefixed string or byte slice.
func AppendBytes[T string | []byte](b []byte, s T) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// AppendCount appends a slice's entry count; the caller appends the entries.
func AppendCount[T any](b []byte, s []T) []byte { return binary.AppendUvarint(b, uint64(len(s))) }

// AppendVarints appends a counted slice of varints.
func AppendVarints[T int | int64](b []byte, s []T) []byte {
	b = AppendCount(b, s)
	for _, v := range s {
		b = binary.AppendVarint(b, int64(v))
	}
	return b
}

// Parser reads one payload. The first error is kept and empties the input,
// so every later read fails at once and returns a zero value; the caller
// checks Err once at the end, and Len for bytes left unread.
type Parser struct {
	b   []byte
	err error
}

// NewParser returns a parser over b. Values it returns never alias b.
func NewParser(b []byte) Parser { return Parser{b: b} }

// Err returns the first parse error, or nil.
func (p *Parser) Err() error { return p.err }

// Len returns the number of bytes not yet read.
func (p *Parser) Len() int { return len(p.b) }

// Fail records a parse error (the first one wins) and empties the input.
func (p *Parser) Fail(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf(format, args...)
	}
	p.b = nil
}

// Uvarint reads a minimal uvarint. Every value below 2^28 takes at most
// four bytes and is read inline: that covers unit costs (three bytes in the
// float layout), player ids and object ids. Each case needs a continuation
// bit on every byte before the last and a non-zero last byte, the
// minimality rule; anything else, longer varints included, takes
// uvarintLong.
func (p *Parser) Uvarint() uint64 {
	b := p.b
	switch {
	case len(b) > 0 && b[0] < 0x80:
		p.b = b[1:]
		return uint64(b[0])
	case len(b) > 1 && 0 < b[1] && b[1] < 0x80:
		p.b = b[2:]
		return uint64(b[0]&0x7f) | uint64(b[1])<<7
	case len(b) > 2 && b[1] >= 0x80 && 0 < b[2] && b[2] < 0x80:
		p.b = b[3:]
		return uint64(b[0]&0x7f) | uint64(b[1]&0x7f)<<7 | uint64(b[2])<<14
	case len(b) > 3 && b[1] >= 0x80 && b[2] >= 0x80 && 0 < b[3] && b[3] < 0x80:
		p.b = b[4:]
		return uint64(b[0]&0x7f) | uint64(b[1]&0x7f)<<7 | uint64(b[2]&0x7f)<<14 | uint64(b[3])<<21
	}
	return p.uvarintLong()
}

// uvarintLong reads what Uvarint does not read inline: a uvarint of five or
// more bytes. It fails on a truncated or overlong one of any length.
func (p *Parser) uvarintLong() uint64 {
	v, n := binary.Uvarint(p.b)
	switch {
	case n == 0:
		p.Fail("payload ends mid-field")
		return 0
	case n < 0 || p.b[n-1] == 0:
		p.Fail("overlong varint")
		return 0
	}
	p.b = p.b[n:]
	return v
}

// Int64 reads a zigzag varint.
func (p *Parser) Int64() int64 {
	u := p.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Int reads a zigzag varint.
func (p *Parser) Int() int { return int(p.Int64()) }

// Float reads a float in gob's byte-reversed layout.
func (p *Parser) Float() float64 {
	return math.Float64frombits(bits.ReverseBytes64(p.Uvarint()))
}

// Byte reads one byte.
func (p *Parser) Byte() byte {
	if len(p.b) == 0 {
		p.Fail("payload ends mid-field")
		return 0
	}
	c := p.b[0]
	p.b = p.b[1:]
	return c
}

// Bool reads a bool byte, refusing anything but 0 and 1.
func (p *Parser) Bool() bool {
	switch c := p.Byte(); c {
	case 0, 1:
		return c == 1
	default:
		p.Fail("bool byte %#x", c)
		return false
	}
}

// Count reads a slice or map length and refuses one that the bytes left
// cannot hold at min bytes an entry, so a hostile count allocates nothing.
func (p *Parser) Count(min int) int {
	n := p.Uvarint()
	if n > uint64(len(p.b)/min) {
		p.Fail("%d entries declared with %d bytes left", n, len(p.b))
		return 0
	}
	return int(n)
}

// Str reads a length-prefixed string.
func (p *Parser) Str() string {
	n := p.Count(1)
	s := string(p.b[:n])
	p.b = p.b[n:]
	return s
}

// Bytes appends a length-prefixed byte slice to dst[:0]: nil for an empty
// one when dst is nil, a copy of the payload's bytes otherwise.
func (p *Parser) Bytes(dst []byte) []byte {
	n := p.Count(1)
	dst = append(dst[:0], p.b[:n]...)
	p.b = p.b[n:]
	return dst
}

// Floats reads a counted slice of floats (nil when empty).
func (p *Parser) Floats() []float64 {
	n := p.Count(1)
	if n == 0 {
		return nil
	}
	s := make([]float64, n)
	for i := range s {
		s[i] = p.Float()
	}
	return s
}

// ParseVarints reads a counted slice of varints (nil when empty).
func ParseVarints[T int | int64](p *Parser) []T {
	n := p.Count(1)
	if n == 0 {
		return nil
	}
	s := make([]T, n)
	for i := range s {
		s[i] = T(p.Int64())
	}
	return s
}
