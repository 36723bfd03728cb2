package billboard

import (
	"slices"
	"testing"
)

// FuzzBoardInvariants drives a board with an arbitrary post/commit script
// and checks the global accounting invariants after every commit:
//
//   - Σ VoteCount == TotalVotes == Σ per-player votes
//   - NumVotedObjects == #objects with positive count
//   - per-player vote counts never exceed the cap f
//   - vote counts never decrease in FirstPositive mode
func FuzzBoardInvariants(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 0, 5, 6, 0}, uint8(1), false)
	f.Add([]byte{9, 9, 9, 9}, uint8(3), true)
	f.Fuzz(func(t *testing.T, script []byte, fRaw uint8, bestValue bool) {
		const players, objects = 6, 10
		votesPer := int(fRaw%4) + 1
		mode := FirstPositive
		if bestValue {
			mode = BestValue
		}
		b, err := New(Config{
			Players: players, Objects: objects,
			Mode: mode, VotesPerPlayer: votesPer,
		})
		if err != nil {
			t.Fatal(err)
		}
		prevTotal := 0
		for i, op := range script {
			if op == 0 {
				b.EndRound()
				// Invariant checks at every commit point.
				sum, voted := 0, 0
				for obj := 0; obj < objects; obj++ {
					c := b.VoteCount(obj)
					if c < 0 {
						t.Fatalf("negative vote count on %d", obj)
					}
					sum += c
					if c > 0 {
						voted++
					}
				}
				perPlayer := 0
				for p := 0; p < players; p++ {
					votes := b.Votes(p)
					limit := votesPer
					if mode == BestValue {
						limit = 1
					}
					if len(votes) > limit {
						t.Fatalf("player %d holds %d votes, cap %d", p, len(votes), limit)
					}
					perPlayer += len(votes)
				}
				if sum != b.TotalVotes() || sum != perPlayer {
					t.Fatalf("vote accounting split: counts %d total %d perPlayer %d",
						sum, b.TotalVotes(), perPlayer)
				}
				if voted != b.NumVotedObjects() {
					t.Fatalf("voted objects %d != %d", voted, b.NumVotedObjects())
				}
				if mode == FirstPositive && sum < prevTotal {
					t.Fatalf("votes disappeared: %d -> %d", prevTotal, sum)
				}
				prevTotal = sum
				continue
			}
			post := Post{
				Player:   int(op) % players,
				Object:   int(op>>2) % objects,
				Value:    float64(op%7) / 7,
				Positive: op%2 == 1,
			}
			if err := b.Post(post); err != nil {
				t.Fatalf("in-range post rejected: %v", err)
			}
			_ = i
		}
	})
}

// FuzzWindowCounts checks the dense window counts against a brute-force
// count over the event log (WindowEvents filtered by each event's round),
// for the windows [0, r), [0, k) and [k, r) of any split k and for a
// window past the open round, and that the split windows partition the
// full one.
func FuzzWindowCounts(f *testing.F) {
	f.Add([]byte{1, 0, 2, 0, 3, 0}, uint8(1))
	f.Fuzz(func(t *testing.T, script []byte, splitRaw uint8) {
		const objects = 8
		b, err := New(Config{Players: 8, Objects: objects})
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range script {
			if op == 0 {
				b.EndRound()
				continue
			}
			_ = b.Post(Post{
				Player:   int(op) % 8,
				Object:   int(op>>3) % objects,
				Value:    1,
				Positive: true,
			})
		}
		b.EndRound()
		r := b.Round()
		split := int(splitRaw) % (r + 1)
		all := b.WindowEvents(0, r)
		var full, left, right WindowCounts
		for _, w := range []struct {
			from, to int
			wc       *WindowCounts
		}{{0, r, &full}, {0, split, &left}, {split, r, &right}, {split, r + 3, new(WindowCounts)}} {
			b.CountVotesInWindow(w.from, w.to, w.wc)
			var want [objects]int
			for _, e := range all {
				if e.Round >= w.from && e.Round < w.to {
					want[e.Object]++
				}
			}
			nonzero := 0
			for obj, n := range want {
				if got := w.wc.Count(obj); got != n {
					t.Fatalf("window [%d,%d): object %d counted %d, want %d", w.from, w.to, obj, got, n)
				}
				if n > 0 {
					nonzero++
				}
			}
			objs := w.wc.Objects()
			if len(objs) != nonzero || !slices.IsSorted(objs) {
				t.Fatalf("window [%d,%d): objects %v, want the %d counted ones ascending", w.from, w.to, objs, nonzero)
			}
		}
		for obj := 0; obj < objects; obj++ {
			if left.Count(obj)+right.Count(obj) != full.Count(obj) {
				t.Fatalf("window split broken at %d for object %d: %d + %d != %d",
					split, obj, left.Count(obj), right.Count(obj), full.Count(obj))
			}
		}
	})
}
