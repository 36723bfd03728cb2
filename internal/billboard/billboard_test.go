package billboard

import (
	"strings"
	"testing"
	"testing/quick"
)

func mustBoard(t *testing.T, cfg Config) *Board {
	t.Helper()
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewValidation(t *testing.T) {
	cases := []Config{
		{Players: 0, Objects: 1},
		{Players: 1, Objects: 0},
		{Players: 1, Objects: 1, Mode: VoteMode(99)},
		{Players: 1, Objects: 1, VotesPerPlayer: -1},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestDefaults(t *testing.T) {
	b := mustBoard(t, Config{Players: 2, Objects: 3})
	if b.Mode() != FirstPositive {
		t.Fatalf("default mode = %v", b.Mode())
	}
	if b.Round() != 0 {
		t.Fatalf("initial round = %d", b.Round())
	}
}

func TestPostVisibilityIsSynchronous(t *testing.T) {
	b := mustBoard(t, Config{Players: 2, Objects: 2})
	if err := b.Post(Post{Player: 0, Object: 1, Value: 1, Positive: true}); err != nil {
		t.Fatal(err)
	}
	// Not yet committed: invisible to same-round readers.
	if b.HasVote(0) || b.VoteCount(1) != 0 {
		t.Fatal("post visible before EndRound")
	}
	// But visible to the adaptive adversary via Pending.
	if got := b.Pending(); len(got) != 1 || got[0].Object != 1 {
		t.Fatalf("Pending = %+v", got)
	}
	b.EndRound()
	if !b.HasVote(0) || b.VoteCount(1) != 1 {
		t.Fatal("post not visible after EndRound")
	}
	if len(b.Pending()) != 0 {
		t.Fatal("pending not cleared after EndRound")
	}
	if b.Round() != 1 {
		t.Fatalf("round = %d", b.Round())
	}
}

func TestPostRejectsOutOfRange(t *testing.T) {
	b := mustBoard(t, Config{Players: 2, Objects: 2})
	if err := b.Post(Post{Player: 2, Object: 0}); err == nil {
		t.Fatal("player out of range accepted")
	}
	if err := b.Post(Post{Player: -1, Object: 0}); err == nil {
		t.Fatal("negative player accepted")
	}
	if err := b.Post(Post{Player: 0, Object: 2}); err == nil {
		t.Fatal("object out of range accepted")
	}
}

func TestFirstPositiveOneVote(t *testing.T) {
	b := mustBoard(t, Config{Players: 1, Objects: 5})
	for obj := 0; obj < 5; obj++ {
		if err := b.Post(Post{Player: 0, Object: obj, Value: 1, Positive: true}); err != nil {
			t.Fatal(err)
		}
		b.EndRound()
	}
	votes := b.Votes(0)
	if len(votes) != 1 || votes[0].Object != 0 {
		t.Fatalf("votes = %+v, want only first", votes)
	}
	if b.TotalVotes() != 1 {
		t.Fatalf("TotalVotes = %d", b.TotalVotes())
	}
	// Only the first positive report generated a vote event.
	if got := b.WindowEvents(0, 100); len(got) != 1 {
		t.Fatalf("events = %+v", got)
	}
}

func TestFirstPositiveNegativeReportsIgnored(t *testing.T) {
	b := mustBoard(t, Config{Players: 1, Objects: 2})
	if err := b.Post(Post{Player: 0, Object: 0, Value: 0, Positive: false}); err != nil {
		t.Fatal(err)
	}
	b.EndRound()
	if b.HasVote(0) {
		t.Fatal("negative report created a vote")
	}
	if b.NumVotedObjects() != 0 {
		t.Fatal("negative report counted as voted object")
	}
}

func TestFirstPositiveFVotes(t *testing.T) {
	b := mustBoard(t, Config{Players: 1, Objects: 10, VotesPerPlayer: 3})
	for obj := 0; obj < 6; obj++ {
		if err := b.Post(Post{Player: 0, Object: obj, Value: 1, Positive: true}); err != nil {
			t.Fatal(err)
		}
	}
	b.EndRound()
	votes := b.Votes(0)
	if len(votes) != 3 {
		t.Fatalf("got %d votes with f=3", len(votes))
	}
	for i, v := range votes {
		if v.Object != i {
			t.Fatalf("vote %d on object %d, want first three objects", i, v.Object)
		}
	}
}

func TestFirstPositiveDuplicateObjectIgnored(t *testing.T) {
	b := mustBoard(t, Config{Players: 1, Objects: 5, VotesPerPlayer: 2})
	for i := 0; i < 3; i++ {
		if err := b.Post(Post{Player: 0, Object: 1, Value: 1, Positive: true}); err != nil {
			t.Fatal(err)
		}
	}
	b.EndRound()
	if n := len(b.Votes(0)); n != 1 {
		t.Fatalf("duplicate votes recorded: %d", n)
	}
	if b.VoteCount(1) != 1 {
		t.Fatalf("VoteCount = %d", b.VoteCount(1))
	}
	// The player still has one vote slot left for a different object.
	if err := b.Post(Post{Player: 0, Object: 2, Value: 1, Positive: true}); err != nil {
		t.Fatal(err)
	}
	b.EndRound()
	if n := len(b.Votes(0)); n != 2 {
		t.Fatalf("second slot unusable: %d votes", n)
	}
}

func TestVotedObjectsSet(t *testing.T) {
	b := mustBoard(t, Config{Players: 3, Objects: 10})
	posts := []Post{
		{Player: 0, Object: 7, Value: 1, Positive: true},
		{Player: 1, Object: 2, Value: 1, Positive: true},
		{Player: 2, Object: 7, Value: 1, Positive: true},
	}
	for _, p := range posts {
		if err := b.Post(p); err != nil {
			t.Fatal(err)
		}
	}
	b.EndRound()
	got := b.VotedObjects()
	if len(got) != 2 || got[0] != 2 || got[1] != 7 {
		t.Fatalf("VotedObjects = %v", got)
	}
	if b.NumVotedObjects() != 2 {
		t.Fatalf("NumVotedObjects = %d", b.NumVotedObjects())
	}
	if b.VoteCount(7) != 2 {
		t.Fatalf("VoteCount(7) = %d", b.VoteCount(7))
	}
}

func TestCountVotesInWindow(t *testing.T) {
	b := mustBoard(t, Config{Players: 5, Objects: 3})
	// Round 0: players 0, 1 vote object 0.
	for p := 0; p < 2; p++ {
		if err := b.Post(Post{Player: p, Object: 0, Value: 1, Positive: true}); err != nil {
			t.Fatal(err)
		}
	}
	b.EndRound()
	// Round 1: nothing.
	b.EndRound()
	// Round 2: players 2, 3, 4 vote object 1.
	for p := 2; p < 5; p++ {
		if err := b.Post(Post{Player: p, Object: 1, Value: 1, Positive: true}); err != nil {
			t.Fatal(err)
		}
	}
	b.EndRound()

	counts := windowMap(b, 0, 1)
	if counts[0] != 2 || counts[1] != 0 {
		t.Fatalf("window [0,1) = %v", counts)
	}
	counts = windowMap(b, 2, 3)
	if counts[1] != 3 || counts[0] != 0 {
		t.Fatalf("window [2,3) = %v", counts)
	}
	counts = windowMap(b, 0, 3)
	if counts[0] != 2 || counts[1] != 3 {
		t.Fatalf("window [0,3) = %v", counts)
	}
	if got := windowMap(b, 1, 2); len(got) != 0 {
		t.Fatalf("empty window = %v", got)
	}
}

func TestBestValueVoteMoves(t *testing.T) {
	b := mustBoard(t, Config{Players: 1, Objects: 5, Mode: BestValue})
	steps := []struct {
		obj      int
		val      float64
		wantVote int
	}{
		{2, 0.3, 2}, // first report
		{1, 0.1, 2}, // worse: vote stays
		{4, 0.9, 4}, // better: vote moves
		{3, 0.5, 4}, // worse than current best
	}
	for i, s := range steps {
		if err := b.Post(Post{Player: 0, Object: s.obj, Value: s.val}); err != nil {
			t.Fatal(err)
		}
		b.EndRound()
		votes := b.Votes(0)
		if len(votes) != 1 || votes[0].Object != s.wantVote {
			t.Fatalf("step %d: votes = %+v, want object %d", i, votes, s.wantVote)
		}
	}
	// Vote counts followed the moves.
	if b.VoteCount(2) != 0 || b.VoteCount(4) != 1 {
		t.Fatalf("counts: obj2=%d obj4=%d", b.VoteCount(2), b.VoteCount(4))
	}
	if b.NumVotedObjects() != 1 {
		t.Fatalf("NumVotedObjects = %d", b.NumVotedObjects())
	}
}

func TestBestValueReaffirmationCountsInWindow(t *testing.T) {
	b := mustBoard(t, Config{Players: 1, Objects: 3, Mode: BestValue})
	if err := b.Post(Post{Player: 0, Object: 1, Value: 0.8}); err != nil {
		t.Fatal(err)
	}
	b.EndRound() // round 0: initial vote event
	if err := b.Post(Post{Player: 0, Object: 1, Value: 0.8}); err != nil {
		t.Fatal(err)
	}
	b.EndRound() // round 1: re-affirmation event
	if got := windowMap(b, 1, 2); got[1] != 1 {
		t.Fatalf("re-affirmation not counted: %v", got)
	}
	// State unchanged: still exactly one vote on object 1.
	if b.VoteCount(1) != 1 || b.TotalVotes() != 1 {
		t.Fatal("re-affirmation changed vote state")
	}
}

func TestBestValueWorseReportNoEvent(t *testing.T) {
	b := mustBoard(t, Config{Players: 1, Objects: 3, Mode: BestValue})
	if err := b.Post(Post{Player: 0, Object: 1, Value: 0.8}); err != nil {
		t.Fatal(err)
	}
	b.EndRound()
	if err := b.Post(Post{Player: 0, Object: 2, Value: 0.1}); err != nil {
		t.Fatal(err)
	}
	b.EndRound()
	if got := b.WindowEvents(1, 2); len(got) != 0 {
		t.Fatalf("worse report produced events: %+v", got)
	}
}

func TestKeepLog(t *testing.T) {
	b := mustBoard(t, Config{Players: 1, Objects: 2, KeepLog: true})
	if err := b.Post(Post{Player: 0, Object: 0, Value: 0, Positive: false}); err != nil {
		t.Fatal(err)
	}
	if err := b.Post(Post{Player: 0, Object: 1, Value: 1, Positive: true}); err != nil {
		t.Fatal(err)
	}
	b.EndRound()
	log := b.Log()
	if len(log) != 2 {
		t.Fatalf("log length = %d", len(log))
	}
	if log[0].Positive || !log[1].Positive {
		t.Fatal("log order or content wrong")
	}
	if log[0].Round != 0 {
		t.Fatalf("log round = %d", log[0].Round)
	}
	// Without KeepLog, Log returns nil.
	b2 := mustBoard(t, Config{Players: 1, Objects: 1})
	if b2.Log() != nil {
		t.Fatal("Log without KeepLog should be nil")
	}
}

func TestAppendOnlyInvariant(t *testing.T) {
	// Property: in FirstPositive mode, committed votes never disappear and
	// never change object, no matter what posts follow.
	f := func(posts []struct {
		Player uint8
		Object uint8
		Pos    bool
	}) bool {
		b, err := New(Config{Players: 8, Objects: 8, VotesPerPlayer: 2})
		if err != nil {
			return false
		}
		type key struct{ player, object int }
		seen := make(map[key]bool)
		for _, p := range posts {
			post := Post{
				Player:   int(p.Player % 8),
				Object:   int(p.Object % 8),
				Value:    1,
				Positive: p.Pos,
			}
			if err := b.Post(post); err != nil {
				return false
			}
			b.EndRound()
			// All previously seen votes must still be present.
			current := make(map[key]bool)
			for player := 0; player < 8; player++ {
				for _, v := range b.Votes(player) {
					current[key{player, v.Object}] = true
				}
			}
			for k := range seen {
				if !current[k] {
					return false
				}
			}
			seen = current
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestVoteCountConsistencyProperty(t *testing.T) {
	// Property: sum over objects of VoteCount equals TotalVotes, and
	// NumVotedObjects equals the number of objects with positive count —
	// in both modes, under arbitrary post sequences.
	f := func(posts []struct {
		Player uint8
		Object uint8
		Val    float64
	}, best bool) bool {
		mode := FirstPositive
		if best {
			mode = BestValue
		}
		b, err := New(Config{Players: 4, Objects: 6, Mode: mode})
		if err != nil {
			return false
		}
		for _, p := range posts {
			val := p.Val
			if val < 0 {
				val = -val
			}
			post := Post{
				Player:   int(p.Player % 4),
				Object:   int(p.Object % 6),
				Value:    val,
				Positive: true,
			}
			if err := b.Post(post); err != nil {
				return false
			}
		}
		b.EndRound()
		sum, voted := 0, 0
		for obj := 0; obj < 6; obj++ {
			c := b.VoteCount(obj)
			if c < 0 {
				return false
			}
			sum += c
			if c > 0 {
				voted++
			}
		}
		return sum == b.TotalVotes() && voted == b.NumVotedObjects()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestVoteModeString(t *testing.T) {
	if FirstPositive.String() != "first-positive" || BestValue.String() != "best-value" {
		t.Fatal("mode names wrong")
	}
	if !strings.Contains(VoteMode(9).String(), "9") {
		t.Fatal("unknown mode string should include the number")
	}
}
