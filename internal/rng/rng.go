// Package rng provides a deterministic, splittable pseudo-random number
// generator for reproducible simulations.
//
// The generator is xoshiro256** seeded through SplitMix64. Every simulation
// entity (engine, player, adversary) derives its own independent stream from
// a single master seed via Split, so a run is fully determined by one uint64
// seed regardless of scheduling or the order in which streams are consumed.
package rng

import "math/bits"

// Source is a deterministic random number stream. It is not safe for
// concurrent use; derive one Source per goroutine with Split.
type Source struct {
	seed  uint64 // the seed this stream was created from (for Split)
	state [4]uint64
}

const goldenGamma = 0x9e3779b97f4a7c15

// splitMix64 advances a SplitMix64 state and returns the next output.
func splitMix64(x *uint64) uint64 {
	*x += goldenGamma
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded deterministically from seed.
func New(seed uint64) *Source {
	s := seeded(seed)
	return &s
}

// seeded returns the stream New(seed) points to, by value.
func seeded(seed uint64) Source {
	s := Source{seed: seed}
	x := seed
	for i := range s.state {
		s.state[i] = splitMix64(&x)
	}
	// xoshiro256** must not start at the all-zero state; SplitMix64 makes
	// that impossible for any seed, but guard anyway.
	if s.state[0]|s.state[1]|s.state[2]|s.state[3] == 0 {
		s.state[3] = goldenGamma
	}
	return s
}

// Split derives an independent child stream identified by label. The child
// depends only on (parent seed, label), never on how much of the parent
// stream has been consumed, so stream identities are stable across
// refactorings of draw order.
func (s *Source) Split(label uint64) *Source {
	c := s.SplitValue(label)
	return &c
}

// SplitValue returns the stream Split(label) points to, by value: a caller
// keeping many streams in a slice of values pays no allocation per stream.
func (s *Source) SplitValue(label uint64) Source {
	x := s.seed
	a := splitMix64(&x)
	x = a ^ (label * goldenGamma)
	b := splitMix64(&x)
	return seeded(b ^ bits.RotateLeft64(label, 32))
}

// Seed returns the seed this stream was created from.
func (s *Source) Seed() uint64 { return s.seed }

// Uint64 returns the next 64 uniformly random bits.
func (s *Source) Uint64() uint64 {
	st := &s.state
	result := bits.RotateLeft64(st[1]*5, 7) * 9
	t := st[1] << 17
	st[2] ^= st[0]
	st[3] ^= st[1]
	st[1] ^= st[2]
	st[0] ^= st[3]
	st[2] ^= t
	st[3] = bits.RotateLeft64(st[3], 45)
	return result
}

// Uint64n returns a uniformly random value in [0, n). It panics if n == 0.
// Uses Lemire's multiply-shift rejection method, which is unbiased.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	x := s.Uint64()
	hi, lo := bits.Mul64(x, n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			x = s.Uint64()
			hi, lo = bits.Mul64(x, n)
		}
	}
	return hi
}

// Intn returns a uniformly random int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(s.Uint64n(uint64(n)))
}

// Float64 returns a uniformly random float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) * 0x1p-53
}

// Bernoulli returns true with probability p (clamped to [0, 1]).
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Perm returns a uniformly random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle randomizes the order of n elements using the provided swap
// function, via the Fisher-Yates algorithm.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Choice returns a uniformly random element of xs. It panics if xs is empty.
func (s *Source) Choice(xs []int) int {
	return xs[s.Intn(len(xs))]
}

// Sample returns k distinct elements drawn uniformly from [0, n) in random
// order. It panics if k > n or k < 0.
func (s *Source) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: Sample with k out of range")
	}
	// Floyd's algorithm: O(k) expected work, O(k) memory.
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := s.Intn(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	s.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
