package codec

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// boundaries returns 2^(7k)-1 and 2^(7k) for k = 1..9, the last values of
// one varint length and the first of the next, then MaxUint64.
func boundaries() []uint64 {
	var vs []uint64
	for k := 1; k <= 9; k++ {
		v := uint64(1) << (7 * k)
		vs = append(vs, v-1, v)
	}
	return append(vs, math.MaxUint64)
}

// TestUvarintBoundaries reads every boundary value, alone and followed by a
// byte that must stay unread.
func TestUvarintBoundaries(t *testing.T) {
	for _, v := range boundaries() {
		enc := binary.AppendUvarint(nil, v)
		if len(enc) != UvarintSize(v) {
			t.Fatalf("%d: %d bytes, UvarintSize says %d", v, len(enc), UvarintSize(v))
		}
		for _, tail := range [][]byte{nil, {0x7f}} {
			p := NewParser(append(enc[:len(enc):len(enc)], tail...))
			if got := p.Uvarint(); got != v || p.Err() != nil || p.Len() != len(tail) {
				t.Fatalf("% x: read %d (err %v, %d bytes left), want %d with %d left",
					enc, got, p.Err(), p.Len(), v, len(tail))
			}
		}
	}
}

// overlong returns the encoding of v padded to n bytes: continuation bits
// on every byte but the last, which is zero. Only the minimal encoding is
// canonical, so a parser must refuse it.
func overlong(v uint64, n int) []byte {
	b := binary.AppendUvarint(nil, v)
	b[len(b)-1] |= 0x80
	for len(b) < n-1 {
		b = append(b, 0x80)
	}
	return append(b, 0)
}

// TestUvarintRefusesOverlong refuses every overlong form of every length
// up to ten bytes, and a varint that runs past 64 bits.
func TestUvarintRefusesOverlong(t *testing.T) {
	var cases [][]byte
	for _, v := range append([]uint64{0}, boundaries()...) {
		for n := UvarintSize(v) + 1; n <= binary.MaxVarintLen64; n++ {
			cases = append(cases, overlong(v, n))
		}
	}
	cases = append(cases,
		append(bytes.Repeat([]byte{0xff}, 9), 0x02),        // 65 bits
		append(bytes.Repeat([]byte{0x80}, 10), 0x01),       // eleven bytes
		append(bytes.Repeat([]byte{0xff}, 10), 0xff, 0x01), // eleven bytes
	)
	for _, b := range cases {
		p := NewParser(b)
		if got := p.Uvarint(); p.Err() == nil || got != 0 || p.Len() != 0 {
			t.Fatalf("% x: read %d (err %v, %d bytes left), want a refusal", b, got, p.Err(), p.Len())
		}
	}
}

// TestUvarintRefusesTruncated refuses every proper prefix of every boundary
// value's encoding, and keeps refusing once failed.
func TestUvarintRefusesTruncated(t *testing.T) {
	for _, v := range boundaries() {
		enc := binary.AppendUvarint(nil, v)
		for cut := range len(enc) {
			p := NewParser(enc[:cut])
			if got := p.Uvarint(); p.Err() == nil || got != 0 {
				t.Fatalf("% x: read %d (err %v), want a refusal", enc[:cut], got, p.Err())
			}
			if got := p.Uvarint(); got != 0 {
				t.Fatalf("% x: a failed parser read %d", enc[:cut], got)
			}
		}
	}
}

// TestUvarintAfterFailure reads nothing once a parse has failed, even when
// the bytes left would parse.
func TestUvarintAfterFailure(t *testing.T) {
	p := NewParser([]byte{0x80, 0x00, 0x01})
	if p.Uvarint(); p.Err() == nil {
		t.Fatal("overlong zero accepted")
	}
	if got := p.Uvarint(); got != 0 || p.Len() != 0 {
		t.Fatalf("read %d after a failure, %d bytes left", got, p.Len())
	}
}

// FuzzUvarint checks Parser.Uvarint against encoding/binary plus the
// minimality rule: a varint is accepted iff binary.Uvarint reads it and its
// last byte is non-zero or it is one byte long, and then the parser reads
// the same value and length.
func FuzzUvarint(f *testing.F) {
	for _, v := range boundaries() {
		enc := binary.AppendUvarint(nil, v)
		f.Add(enc)
		f.Add(append(enc, 0x05))
		f.Add(enc[:len(enc)-1])
		f.Add(overlong(v, min(len(enc)+1, binary.MaxVarintLen64)))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := NewParser(data)
		got := p.Uvarint()
		want, n := binary.Uvarint(data)
		if n > 1 && data[n-1] == 0 {
			n = -1 // overlong
		}
		if n <= 0 {
			if p.Err() == nil || got != 0 || p.Len() != 0 {
				t.Fatalf("% x: read %d (err %v, %d bytes left), want a refusal", data, got, p.Err(), p.Len())
			}
			return
		}
		if p.Err() != nil || got != want || p.Len() != len(data)-n {
			t.Fatalf("% x: read %d (err %v, %d bytes left), want %d with %d left",
				data, got, p.Err(), p.Len(), want, len(data)-n)
		}
		if enc := binary.AppendUvarint(nil, got); !bytes.Equal(enc, data[:n]) {
			t.Fatalf("% x: read %d, which encodes as % x", data, got, enc)
		}
	})
}

// BenchmarkUvarint reads a mix of one- to five-byte varints: the lengths
// of flags, unit costs, and player and object ids past 2^14.
func BenchmarkUvarint(b *testing.B) {
	var buf []byte
	vs := []uint64{1, 200, 61503, 70_000, 200_000, 3 << 21, 1 << 30}
	for range 256 {
		for _, v := range vs {
			buf = binary.AppendUvarint(buf, v)
		}
	}
	var sum uint64
	b.SetBytes(int64(len(buf)))
	for range b.N {
		p := NewParser(buf)
		for p.Len() > 0 {
			sum += p.Uvarint()
		}
	}
	if sum == 0 {
		b.Fatal("read nothing")
	}
}
