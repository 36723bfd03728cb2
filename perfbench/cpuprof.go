package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Layers a CPU sample can be attributed to, in report order: every
// repro/internal package the benchmark links, the benchmark itself, the
// garbage collector's workers and the rest of the runtime. A sample in a
// repro/internal package missing from this list lands in "other".
var cpuLayers = []string{
	"swarm", "client", "wire", "server", "billboard", "journal",
	"core", "sim", "object", "rng", "obs",
	"bench", "runtime.gc", "runtime", "other",
}

// layerOf attributes one stack, leaf frame first, to a layer: the deepest
// (leaf-most) repro/internal/<module> frame names the module; a benchmark
// frame before any such frame names "bench"; a stack with neither goes to
// "runtime.gc" when it runs on a GC worker and to "runtime" otherwise.
func layerOf(stack []string) string {
	gcWorker := false
	for _, fn := range stack {
		if mod, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
			if i := strings.IndexAny(mod, "./"); i > 0 {
				mod = mod[:i]
			}
			for _, l := range cpuLayers {
				if l == mod {
					return mod
				}
			}
			return "other"
		}
		if strings.HasPrefix(fn, "main.") {
			return "bench"
		}
		if fn == "runtime.gcBgMarkWorker" {
			gcWorker = true
		}
	}
	if gcWorker {
		return "runtime.gc"
	}
	return "runtime"
}

// layerSamples accumulates CPU samples by layer.
type layerSamples map[string]int64

// addProfile attributes every sample of one gzipped pprof CPU profile.
func (ls layerSamples) addProfile(data []byte) error {
	stacks, err := decodeProfile(data)
	if err != nil {
		return err
	}
	for _, s := range stacks {
		ls[layerOf(s.frames)] += s.count
	}
	return nil
}

// shares returns each layer's fraction of all samples (zero when empty).
func (ls layerSamples) shares() map[string]float64 {
	var total int64
	for _, n := range ls {
		total += n
	}
	out := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		if total > 0 {
			out[l] = float64(ls[l]) / float64(total)
		}
	}
	return out
}

// stackSample is one decoded profile sample: function names leaf first
// (inlined frames innermost first) and the sample count.
type stackSample struct {
	frames []string
	count  int64
}

// Field numbers of profile.proto (github.com/google/pprof) that the
// attribution needs; everything else is skipped.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

// decodeProfile parses a gzipped pprof profile, as runtime/pprof writes
// it, into stacks of function names.
func decodeProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type rawSample struct{ locs, values []uint64 }
	var (
		samples []rawSample
		strs    []string
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
		funcs   = map[uint64]uint64{}   // function id → name string index
	)
	err = eachField(raw, func(num, typ int, v uint64, b []byte) error {
		switch num {
		case profSample:
			var s rawSample
			err := eachField(b, func(num, typ int, v uint64, b []byte) (err error) {
				switch num {
				case sampleLocation:
					s.locs, err = appendUints(s.locs, typ, v, b)
				case sampleValue:
					s.values, err = appendUints(s.values, typ, v, b)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, typ int, v uint64, b []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return eachField(b, func(num, typ int, v uint64, _ []byte) error {
						if num == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case profFunction:
			var id, name uint64
			err := eachField(b, func(num, typ int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case profStringTable:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range locs[loc] {
				if i := funcs[fn]; i < uint64(len(strs)) {
					frames = append(frames, strs[i])
				}
			}
		}
		out = append(out, stackSample{frames: frames, count: int64(s.values[0])})
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type and either its varint value or its bytes.
func eachField(b []byte, fn func(num, typ int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, typ := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch typ {
		case 0: // varint
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1: // fixed64
			if len(b) < 8 {
				return errTruncated
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5: // fixed32
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("protobuf wire type %d", typ)
		}
		if err := fn(num, typ, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field, packed or not.
func appendUints(dst []uint64, typ int, v uint64, b []byte) ([]uint64, error) {
	if typ != 2 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errTruncated
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}
