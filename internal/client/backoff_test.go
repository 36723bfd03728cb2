package client

// backoff must be total: withDefaults normalizes the knobs, but a zero or
// hand-rolled Options (tests, embedding) reaches backoff with whatever the
// caller left there. Degenerate configs — zero, negative, or
// overflow-inducing values — must yield a sane wait (zero for "no backoff
// configured"), never a panic in Uint64n(0). Every retry wait of both
// drivers, the client and the swarm, is drawn from backoff by the session
// transport they share.

import (
	"math"
	"testing"
	"time"

	"repro/internal/rng"
)

func TestBackoffDegenerateConfigs(t *testing.T) {
	cases := []struct {
		name      string
		base, max time.Duration
		attempt   int
		// wantZero asserts an immediate retry; otherwise the wait must be
		// in (0, wantAtMost].
		wantZero   bool
		wantAtMost time.Duration
	}{
		{name: "zero options", base: 0, max: 0, attempt: 1, wantZero: true},
		{name: "zero options late attempt", base: 0, max: 0, attempt: 50, wantZero: true},
		{name: "negative base", base: -time.Second, max: 0, attempt: 3, wantZero: true},
		{name: "negative base and max", base: -time.Second, max: -time.Minute, attempt: 3, wantZero: true},
		{name: "zero base positive max", base: 0, max: time.Second, attempt: 4, wantZero: true},
		// A zero cap is "no backoff configured": the clamp drives any step
		// to zero rather than letting an uncapped exponential run away.
		{name: "positive base zero max", base: time.Millisecond, max: 0, attempt: 1, wantZero: true},
		{name: "huge base zero max", base: math.MaxInt64 / 2, max: 0, attempt: 80, wantZero: true},
		// Doubling past the cap — including past the overflow point — must
		// clamp to the cap, not wrap negative.
		{name: "overflow clamps to max", base: math.MaxInt64 / 2, max: time.Second, attempt: 80,
			wantAtMost: time.Second},
		{name: "normal first attempt", base: 4 * time.Millisecond, max: time.Second, attempt: 1,
			wantAtMost: 4 * time.Millisecond},
		{name: "normal growth", base: 4 * time.Millisecond, max: time.Second, attempt: 3,
			wantAtMost: 16 * time.Millisecond},
		{name: "normal capped", base: 4 * time.Millisecond, max: 10 * time.Millisecond, attempt: 10,
			wantAtMost: 10 * time.Millisecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := Options{BackoffBase: tc.base, BackoffMax: tc.max}
			src := rng.New(1).Split(0)
			// Several draws: the jitter must stay in range for every sample,
			// and no draw may panic.
			for i := 0; i < 32; i++ {
				d := backoff(opt, src, tc.attempt)
				if tc.wantZero {
					if d != 0 {
						t.Fatalf("backoff(%d) = %v, want 0", tc.attempt, d)
					}
					continue
				}
				if d <= 0 || d > tc.wantAtMost {
					t.Fatalf("backoff(%d) = %v, want in (0, %v]", tc.attempt, d, tc.wantAtMost)
				}
			}
		})
	}
}

// TestBackoffOverflowTerminates pins the loop guard: a huge attempt count
// with an uncapped base must return promptly (the doubling loop exits on
// overflow instead of spinning on a step stuck at zero or negative).
func TestBackoffOverflowTerminates(t *testing.T) {
	opt := Options{BackoffBase: time.Nanosecond, BackoffMax: math.MaxInt64}
	src := rng.New(2).Split(0)
	done := make(chan time.Duration, 1)
	go func() { done <- backoff(opt, src, 1<<30) }()
	select {
	case d := <-done:
		if d <= 0 {
			t.Fatalf("backoff overflowed to %v", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("backoff did not terminate")
	}
}
