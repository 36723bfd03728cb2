package billboard_test

import (
	"fmt"

	"repro/internal/billboard"
)

// Example shows the synchronous commit discipline: posts become visible
// only at round boundaries, and only the first positive report of a player
// becomes its vote.
func Example() {
	board, err := billboard.New(billboard.Config{Players: 3, Objects: 5})
	if err != nil {
		panic(err)
	}
	// Round 0: players 0 and 1 recommend object 2; player 0 later tries to
	// recommend object 4 too.
	_ = board.Post(billboard.Post{Player: 0, Object: 2, Value: 1, Positive: true})
	_ = board.Post(billboard.Post{Player: 1, Object: 2, Value: 1, Positive: true})
	_ = board.Post(billboard.Post{Player: 0, Object: 4, Value: 1, Positive: true})

	fmt.Println("before commit:", board.VoteCount(2), "votes on object 2")
	board.EndRound()
	fmt.Println("after commit: ", board.VoteCount(2), "votes on object 2")
	fmt.Println("player 0 votes:", len(board.Votes(0)), "(one-vote rule)")
	// Output:
	// before commit: 0 votes on object 2
	// after commit:  2 votes on object 2
	// player 0 votes: 1 (one-vote rule)
}

// ExampleBoard_CountVotesInWindow shows the per-iteration vote counting
// ℓ_t(i) that DISTILL's candidate filtering uses.
func ExampleBoard_CountVotesInWindow() {
	board, err := billboard.New(billboard.Config{Players: 4, Objects: 3})
	if err != nil {
		panic(err)
	}
	_ = board.Post(billboard.Post{Player: 0, Object: 1, Value: 1, Positive: true})
	board.EndRound() // round 0
	_ = board.Post(billboard.Post{Player: 1, Object: 1, Value: 1, Positive: true})
	_ = board.Post(billboard.Post{Player: 2, Object: 1, Value: 1, Positive: true})
	board.EndRound() // round 1

	// One reused buffer serves every window read.
	var wc billboard.WindowCounts
	board.CountVotesInWindow(0, 1, &wc)
	fmt.Println("votes for object 1 in [0,1):", wc.Count(1))
	board.CountVotesInWindow(1, 2, &wc)
	fmt.Println("votes for object 1 in [1,2):", wc.Count(1))
	// Output:
	// votes for object 1 in [0,1): 1
	// votes for object 1 in [1,2): 2
}
