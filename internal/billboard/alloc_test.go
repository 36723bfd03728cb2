package billboard

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/rng"
)

// TestWarmRoundAllocatesNothingPerPost pins the block-buffered posts: once
// a board has run a round, a round of k posts — k Post calls and one
// EndRound — reuses the pending blocks, the vote storage and the event log,
// so it allocates nothing per post.
func TestWarmRoundAllocatesNothingPerPost(t *testing.T) {
	const k = 8192
	b := mustBoard(t, Config{Players: k, Objects: 64})
	round := func() {
		for i := 0; i < k; i++ {
			_ = b.Post(Post{Player: i, Object: i % 64, Value: 1, Positive: i%2 == 0})
		}
		b.EndRound()
	}
	round() // the first round allocates the blocks, the votes and the events
	if allocs := testing.AllocsPerRun(20, round); allocs > 1 {
		t.Errorf("a warm round of %d posts allocated %v objects, want at most 1", k, allocs)
	}
	if got := b.TotalVotes(); got != k/2 {
		t.Fatalf("%d votes after the rounds, want %d", got, k/2)
	}
}

// TestFirstRoundAllocatesBlocks pins the first round of a fresh board: its
// k posts land in O(log k) blocks whose sizes add up to about k, where one
// slice grown by append would copy every post several times over.
func TestFirstRoundAllocatesBlocks(t *testing.T) {
	const k = 100_000
	b := mustBoard(t, Config{Players: k, Objects: 64})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < k; i++ {
		_ = b.Post(Post{Player: i, Object: i % 64, Value: 1}) // negative reports: no vote, no event
	}
	b.EndRound()
	runtime.ReadMemStats(&after)
	objects := after.Mallocs - before.Mallocs
	maxObjects := uint64(2*bits.Len(k) + k/maxBlock + 8)
	if objects > maxObjects {
		t.Errorf("first round of %d posts allocated %d objects, want at most %d", k, objects, maxObjects)
	}
	bytesOut := after.TotalAlloc - before.TotalAlloc
	maxBytes := uint64(k*unsafe.Sizeof(Post{})) * 5 / 4
	if bytesOut > maxBytes {
		t.Errorf("first round of %d posts allocated %d bytes, want at most %d", k, bytesOut, maxBytes)
	}
	if b.NegativeCount(0) != (k+63)/64 {
		t.Fatalf("negative count of object 0 = %d, want %d", b.NegativeCount(0), (k+63)/64)
	}
}

// TestPendingAcrossBlocks checks the pending view once a round spans
// several blocks: every post, in posting order.
func TestPendingAcrossBlocks(t *testing.T) {
	const k = 3*firstBlock + 5
	b := mustBoard(t, Config{Players: k, Objects: 8})
	for i := 0; i < k; i++ {
		_ = b.Post(Post{Player: i, Object: i % 8, Value: float64(i), Positive: true})
	}
	got := b.Pending()
	if len(got) != k {
		t.Fatalf("Pending holds %d posts, want %d", len(got), k)
	}
	for i, p := range got {
		if p.Player != i || p.Value != float64(i) {
			t.Fatalf("Pending()[%d] = %+v, want player %d's post", i, p, i)
		}
	}
	if _, err := b.Snapshot(); err == nil {
		t.Fatal("snapshot with pending posts accepted")
	}
	b.EndRound()
	if len(b.Pending()) != 0 || b.TotalVotes() != k {
		t.Fatalf("after EndRound: %d pending, %d votes; want 0 and %d", len(b.Pending()), b.TotalVotes(), k)
	}
}

// TestVotesViewCannotAppendIntoStorage pins the vote slab's isolation: the
// view Votes returns ends at its length, so appending to it leaves the slab
// slots reserved for the player's later votes, and every other player's
// votes, untouched.
func TestVotesViewCannotAppendIntoStorage(t *testing.T) {
	b := mustBoard(t, Config{Players: 2, Objects: 8, VotesPerPlayer: 3})
	_ = b.Post(Post{Player: 0, Object: 1, Value: 1, Positive: true})
	_ = b.Post(Post{Player: 1, Object: 2, Value: 1, Positive: true})
	b.EndRound()
	_ = append(b.Votes(0), Vote{Player: 0, Object: 7})
	_ = b.Post(Post{Player: 0, Object: 3, Value: 1, Positive: true})
	b.EndRound()
	if got := b.Votes(0); len(got) != 2 || got[1].Object != 3 {
		t.Fatalf("player 0 votes = %+v, want objects 1 and 3", got)
	}
	if got := b.Votes(1); len(got) != 1 || got[0].Object != 2 {
		t.Fatalf("player 1 votes = %+v, want object 2", got)
	}
}

// TestLargeVoteCapCarvesLittle pins vote storage to the votes players
// hold, not to the cap f: with an f that stands for "no cap", a round in
// which 1000 players each cast a vote stays within a small byte bound,
// where reserving f slots per voter would need f×32 bytes each.
func TestLargeVoteCapCarvesLittle(t *testing.T) {
	const players = 1000
	for _, f := range []int{1 << 20, math.MaxInt} {
		b := mustBoard(t, Config{Players: players, Objects: 64, VotesPerPlayer: f})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for p := 0; p < players; p++ {
			_ = b.Post(Post{Player: p, Object: p % 64, Value: 1, Positive: true})
		}
		b.EndRound()
		runtime.ReadMemStats(&after)
		if got := b.TotalVotes(); got != players {
			t.Fatalf("f=%d: %d votes, want %d", f, got, players)
		}
		if bytesOut := after.TotalAlloc - before.TotalAlloc; bytesOut > 1<<20 {
			t.Errorf("f=%d: a round of %d first votes allocated %d bytes, want at most %d", f, players, bytesOut, 1<<20)
		}
	}
}

// TestVotesPastCarve checks a player that holds more votes than its first
// vote carved: its later votes move it out of the slab, and neither its
// votes nor its slab neighbours' are lost or overwritten.
func TestVotesPastCarve(t *testing.T) {
	const f = 3 * maxCarve
	b := mustBoard(t, Config{Players: 3, Objects: 2 * f, VotesPerPlayer: f})
	for r := 0; r < f; r++ {
		for p := 0; p < 3; p++ {
			if p == 1 && r >= 1 {
				continue // player 1 keeps one vote, between two growing players
			}
			_ = b.Post(Post{Player: p, Object: (p + r) % (2 * f), Value: float64(r), Positive: true})
		}
		b.EndRound()
	}
	for p := 0; p < 3; p++ {
		want := f
		if p == 1 {
			want = 1
		}
		got := b.Votes(p)
		if len(got) != want {
			t.Fatalf("player %d holds %d votes, want %d", p, len(got), want)
		}
		for r, v := range got {
			if v.Player != p || v.Object != (p+r)%(2*f) || v.Round != r {
				t.Fatalf("player %d vote %d = %+v, want object %d at round %d", p, r, v, (p+r)%(2*f), r)
			}
		}
	}
}

// TestDigestMatchesReference compares Digest against the
// fmt-and-sort.Slice implementation it replaced, kept below, over random
// boards in both vote modes: the digest bytes are the behaviour contract.
func TestDigestMatchesReference(t *testing.T) {
	specials := []float64{0, math.Copysign(0, -1), 1e21, 1e-7, math.Inf(1), math.Inf(-1), 0.1, 123456789.125}
	for seed := uint64(1); seed <= 60; seed++ {
		src := rng.New(seed)
		mode := FirstPositive
		if seed%2 == 0 {
			mode = BestValue
		}
		cfg := Config{Players: 1 + src.Intn(40), Objects: 1 + src.Intn(30), Mode: mode, VotesPerPlayer: 1 + src.Intn(3)}
		b := mustBoard(t, cfg)
		for r := src.Intn(6); r >= 0; r-- {
			for n := src.Intn(3 * cfg.Players); n > 0; n-- {
				p := Post{Player: src.Intn(cfg.Players), Object: src.Intn(cfg.Objects), Positive: src.Bernoulli(0.6)}
				if src.Bernoulli(0.1) {
					p.Value = specials[src.Intn(len(specials))]
				} else {
					p.Value = float64(src.Intn(1000)) / 7
				}
				if err := b.Post(p); err != nil {
					t.Fatal(err)
				}
			}
			b.EndRound()
		}
		if got, want := b.Digest(), referenceDigest(b); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: Digest differs from the reference:\n%s\n--- want ---\n%s", seed, got, want)
		}
	}
}

// TestDigestAllocationsFlat pins Digest's allocation count: a few buffers
// per call, none per player.
func TestDigestAllocationsFlat(t *testing.T) {
	for _, players := range []int{3000, 30000} {
		b := mustBoard(t, Config{Players: players, Objects: 512})
		for p := 0; p < players; p++ {
			if p%3 != 2 {
				_ = b.Post(Post{Player: p, Object: p % 512, Value: 0.5, Positive: true})
			}
		}
		b.EndRound()
		if allocs := testing.AllocsPerRun(5, func() { _ = b.Digest() }); allocs > 6 {
			t.Errorf("Digest of a %d-player board allocated %v objects, want at most 6", players, allocs)
		}
	}
}

// referenceDigest is Digest as it was written before the digest was built
// in one buffer: fmt lines, and a sort.Slice per player.
func referenceDigest(b *Board) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "round %d mode %d f %d\n", b.round, b.cfg.Mode, b.cfg.VotesPerPlayer)
	for p := 0; p < b.cfg.Players; p++ {
		sorted := append([]Vote(nil), b.votesByPlayer[p]...)
		sort.Slice(sorted, func(i, j int) bool {
			if sorted[i].Round != sorted[j].Round {
				return sorted[i].Round < sorted[j].Round
			}
			return sorted[i].Object < sorted[j].Object
		})
		for _, v := range sorted {
			fmt.Fprintf(&buf, "vote p%d o%d r%d v%g\n", p, v.Object, v.Round, v.Value)
		}
	}
	for obj := 0; obj < b.cfg.Objects; obj++ {
		if n := b.negCount[obj]; n != 0 {
			fmt.Fprintf(&buf, "neg o%d %d\n", obj, n)
		}
	}
	events := append([]VoteEvent(nil), b.events...)
	sort.Slice(events, func(i, j int) bool {
		a, c := events[i], events[j]
		if a.Round != c.Round {
			return a.Round < c.Round
		}
		if a.Player != c.Player {
			return a.Player < c.Player
		}
		return a.Object < c.Object
	})
	for _, e := range events {
		fmt.Fprintf(&buf, "event p%d o%d r%d\n", e.Player, e.Object, e.Round)
	}
	return buf.Bytes()
}
