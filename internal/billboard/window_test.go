package billboard

import (
	"math/rand"
	"sort"
	"testing"
)

// TestWindowCountsMatchNaiveScan is the property test for the event-offset
// index: after an arbitrary interleaving of posts and round boundaries, the
// indexed window query must agree with a naive
// scan that filters the full event log by each event's Round tag — for every
// window, including empty, inverted, and out-of-range ones, in both vote
// modes.
func TestWindowCountsMatchNaiveScan(t *testing.T) {
	for _, mode := range []VoteMode{FirstPositive, BestValue} {
		t.Run(mode.String(), func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				r := rand.New(rand.NewSource(seed))
				players := 1 + r.Intn(12)
				objects := 1 + r.Intn(16)
				b, err := New(Config{
					Players:        players,
					Objects:        objects,
					Mode:           mode,
					VotesPerPlayer: 1 + r.Intn(3),
				})
				if err != nil {
					t.Fatal(err)
				}
				rounds := 5 + r.Intn(30)
				var wc WindowCounts
				for round := 0; round < rounds; round++ {
					for k := r.Intn(10); k > 0; k-- {
						err := b.Post(Post{
							Player:   r.Intn(players),
							Object:   r.Intn(objects),
							Value:    r.Float64(),
							Positive: r.Intn(3) > 0,
						})
						if err != nil {
							t.Fatal(err)
						}
					}
					b.EndRound()

					// The full log via the boundary-only offsets; the
					// reference filters it by each event's Round tag, never
					// touching the interior index.
					all := b.WindowEvents(-1, b.Round()+1)
					for trial := 0; trial < 6; trial++ {
						from := r.Intn(b.Round()+5) - 2
						to := r.Intn(b.Round()+5) - 2
						want := make(map[int]int)
						for _, e := range all {
							if e.Round >= from && e.Round < to {
								want[e.Object]++
							}
						}
						checkWindow(t, b, from, to, &wc, want)
					}
				}
			}
		})
	}
}

func checkWindow(t *testing.T, b *Board, from, to int, wc *WindowCounts, want map[int]int) {
	t.Helper()
	b.CountVotesInWindow(from, to, wc)
	if wc.Len() != len(want) {
		t.Fatalf("window [%d,%d): WindowCounts has %d objects, want %d", from, to, wc.Len(), len(want))
	}
	objs := wc.Objects()
	if !sort.IntsAreSorted(objs) {
		t.Fatalf("window [%d,%d): Objects() not ascending: %v", from, to, objs)
	}
	for _, obj := range objs {
		if wc.Count(obj) != want[obj] {
			t.Fatalf("window [%d,%d): Count(%d) = %d, want %d", from, to, obj, wc.Count(obj), want[obj])
		}
	}
}

// TestWindowCountsSurviveSnapshotRestore pins that the derived index is
// rebuilt on Restore: a restored board must answer every window query the
// same as the original.
func TestWindowCountsSurviveSnapshotRestore(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	b, err := New(Config{Players: 6, Objects: 8})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 12; round++ {
		for k := r.Intn(4); k > 0; k-- {
			_ = b.Post(Post{Player: r.Intn(6), Object: r.Intn(8), Value: 1, Positive: true})
		}
		b.EndRound()
	}
	snap, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	var wc WindowCounts
	for from := -1; from <= b.Round()+1; from++ {
		for to := from; to <= b.Round()+1; to++ {
			want := windowMap(b, from, to)
			checkWindow(t, restored, from, to, &wc, want)
		}
	}
}

// windowMap returns b's window counts of [from, to) as a map, for tests
// that compare whole windows.
func windowMap(b *Board, from, to int) map[int]int {
	var wc WindowCounts
	b.CountVotesInWindow(from, to, &wc)
	m := make(map[int]int, wc.Len())
	for _, obj := range wc.Objects() {
		m[obj] = wc.Count(obj)
	}
	return m
}
