package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

func TestLayerOfHandBuiltStacks(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // leaf first
		want  string
	}{
		{"deepest internal frame wins", []string{
			"syscall.Syscall", "net.(*conn).Write",
			"repro/internal/wire.(*StreamEncoder).flush",
			"repro/internal/swarm.(*conn).exchange",
			"main.(*bench).search", "main.main", "runtime.main",
		}, "wire"},
		{"inlined frame names its module", []string{
			"repro/internal/server.(*Server).leaveLocked",
			"repro/internal/server.(*Server).swarmDoneLocked",
		}, "server"},
		{"harness above any internal frame", []string{
			"runtime.mallocgc", "main.(*spanRecorder).add", "main.(*bench).search", "runtime.main",
		}, "bench"},
		{"internal frame below the harness", []string{
			"repro/internal/core.(*Distill).ProbeFor", "repro/internal/swarm.(*driver).run",
			"repro/internal/swarm.Run", "main.(*bench).search",
		}, "core"},
		{"gc worker", []string{
			"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2",
			"runtime.systemstack", "runtime.gcBgMarkWorker", "runtime.goexit",
		}, "runtime.gc"},
		{"gc assist charges the allocating layer", []string{
			"runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/billboard.(*Board).Post",
		}, "billboard"},
		{"scheduler", []string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.mcall"}, "runtime"},
		{"empty stack", nil, "runtime"},
		{"unlisted internal package", []string{"repro/internal/trust.Score"}, "other"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("%s: layerOf = %q, want %q", c.name, got, c.want)
		}
	}
}

// pb is a minimal protobuf encoder for building profiles by hand.
type pb struct{ bytes.Buffer }

func (b *pb) varint(field int, v uint64) {
	b.Write(binary.AppendUvarint(nil, uint64(field)<<3))
	b.Write(binary.AppendUvarint(nil, v))
}

func (b *pb) bytesField(field int, data []byte) {
	b.Write(binary.AppendUvarint(nil, uint64(field)<<3|2))
	b.Write(binary.AppendUvarint(nil, uint64(len(data))))
	b.Write(data)
}

func (b *pb) packed(field int, vs ...uint64) {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	b.bytesField(field, p)
}

// handProfile encodes a profile with one function per location (plus one
// location holding an inlined pair) and the given samples.
func handProfile(t *testing.T) []byte {
	t.Helper()
	var prof pb
	strs := []string{"", "samples", "count",
		"repro/internal/server.(*Server).advanceLocked", // 3
		"repro/internal/server.(*Server).leaveLocked",   // 4
		"main.(*bench).search",                          // 5
		"runtime.gcBgMarkWorker",                        // 6
		"runtime.scanobject",                            // 7
		"repro/internal/wire.putUvarint",                // 8
		"repro/internal/swarm.(*group).runRound",        // 9
	}
	for id := uint64(1); id <= 7; id++ { // function id i names strs[i+2]
		var f pb
		f.varint(functionID, id)
		f.varint(functionName, id+2)
		prof.bytesField(profFunction, f.Bytes())
	}
	loc := func(id uint64, fns ...uint64) {
		var l pb
		l.varint(locationID, id)
		for _, fn := range fns {
			var line pb
			line.varint(lineFunction, fn)
			l.bytesField(locationLine, line.Bytes())
		}
		prof.bytesField(profLocation, l.Bytes())
	}
	loc(10, 1, 2) // advanceLocked inlined into leaveLocked
	loc(11, 3)    // main.(*bench).search
	loc(12, 5)    // runtime.scanobject
	loc(13, 4)    // runtime.gcBgMarkWorker
	loc(14, 6)    // wire.putUvarint
	loc(15, 7)    // swarm runRound
	sample := func(count uint64, locs ...uint64) {
		var s pb
		if len(locs) > 2 {
			s.packed(sampleLocation, locs...)
		} else {
			for _, l := range locs {
				s.varint(sampleLocation, l)
			}
		}
		s.packed(sampleValue, count, count*10_000_000)
		prof.bytesField(profSample, s.Bytes())
	}
	sample(6, 10, 11)     // server
	sample(2, 12, 13)     // runtime.gc
	sample(1, 14, 15, 11) // wire (deepest internal frame)
	sample(1, 11)         // bench
	for _, s := range strs {
		prof.bytesField(profStringTable, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestProfileAttribution(t *testing.T) {
	ls := layerSamples{}
	if err := ls.addProfile(handProfile(t)); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"server": 0.6, "runtime.gc": 0.2, "wire": 0.1, "bench": 0.1}
	shares := ls.shares()
	total := 0.0
	for _, l := range cpuLayers {
		total += shares[l]
		if math.Abs(shares[l]-want[l]) > 1e-12 {
			t.Errorf("%s.cpu_share = %v, want %v", l, shares[l], want[l])
		}
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("shares sum to %v, want 1", total)
	}
}

func TestDecodeProfileRejectsTruncation(t *testing.T) {
	var prof pb
	prof.bytesField(profStringTable, []byte("runtime.main"))
	raw := prof.Bytes()[:prof.Len()-3]
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(raw)
	zw.Close()
	if _, err := decodeProfile(gz.Bytes()); err == nil {
		t.Fatal("decodeProfile accepted a truncated message")
	}
}
