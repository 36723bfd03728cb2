package swarm

import (
	"context"
	"slices"
	"testing"

	"repro/internal/billboard"
	"repro/internal/client"
	"repro/internal/object"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/wire"
)

// contractRounds is the committed history both sides of the reader
// contract hold: votes (f = 2, so a third positive report and a repeat are
// ignored), negative reports, and an empty round.
var contractRounds = [][]wire.PostMsg{
	{
		{Player: 0, Object: 3, Value: 0.5, Positive: true}, {Player: 0, Object: 5, Value: 0.1},
		{Player: 1, Object: 3, Value: 0.6, Positive: true},
		{Player: 2, Object: 5, Value: 0.2}, {Player: 2, Object: 6, Value: 0.3},
	},
	nil,
	{
		{Player: 0, Object: 1, Value: 0.7, Positive: true}, {Player: 0, Object: 2, Value: 0.8, Positive: true},
		{Player: 2, Object: 7, Value: 0.9, Positive: true},
		{Player: 3, Object: 3, Value: 0.4},
	},
	{
		{Player: 1, Object: 3, Value: 0.6, Positive: true}, {Player: 1, Object: 4, Value: 0.25, Positive: true},
		{Player: 3, Object: 4, Value: 0.75, Positive: true}, {Player: 3, Object: 1, Value: 0.05},
	},
}

// contractPending is posted in the open round and never committed: no
// committed read may see it.
var contractPending = []wire.PostMsg{{Player: 2, Object: 0, Value: 1, Positive: true}}

// TestReaderContract commits the same posts to a local billboard.Board and
// to a live server, then checks that both wire-backed readers, a player's
// client.Cached and the swarm's boardReader (reading vote by vote, and
// after a bulk prefetch), answer every billboard.Reader method as the board
// does.
func TestReaderContract(t *testing.T) {
	const players, objects, votesPerPlayer = 4, 8, 2
	reader := players // a player of its own outside the swarm's range

	u, err := object.NewPlanted(object.Planted{M: objects, Good: 1}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	tokens := make([]string, players+1)
	tokens[reader] = "reader"
	srv, err := server.New(server.Config{
		Universe: u, Tokens: tokens, Alpha: 1, Beta: u.Beta(),
		VotesPerPlayer: votesPerPlayer, SwarmToken: "swarm",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	board, err := billboard.New(billboard.Config{Players: players + 1, Objects: objects, VotesPerPlayer: votesPerPlayer})
	if err != nil {
		t.Fatal(err)
	}
	post := func(posts []wire.PostMsg) {
		for _, p := range posts {
			if err := board.Post(billboard.Post{Player: p.Player, Object: p.Object, Value: p.Value, Positive: p.Positive}); err != nil {
				t.Fatal(err)
			}
		}
	}

	// The reader player leaves at once, so the swarm session alone paces
	// the rounds.
	c, err := client.Dial(addr, reader, "reader")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Done(); err != nil {
		t.Fatal(err)
	}
	tr := client.NewTransport(context.Background(), addr, client.Options{}, 0, 8, client.TransportMetrics{})
	conn := tr.NewConn("swarm", wire.Request{Swarm: true, Player: 0, PlayerTo: players, Token: "swarm"}, 1)
	defer conn.Close()
	if _, err := conn.Dial(); err != nil {
		t.Fatal(err)
	}
	for r, posts := range contractRounds {
		reqs := []wire.Request{{Type: wire.ReqPostBatch, Posts: posts, EndRound: true}}
		if _, err := conn.Arrive(reqs, make([]wire.Response, 1), r+1); err != nil {
			t.Fatal(err)
		}
		post(posts)
		board.EndRound()
	}
	if _, err := conn.Call(wire.Request{Type: wire.ReqPostBatch, Posts: contractPending}); err != nil {
		t.Fatal(err)
	}
	post(contractPending)

	for _, rc := range []struct {
		name string
		r    func() billboard.Reader
	}{
		{"client.Cached", func() billboard.Reader { return client.NewCached(c) }},
		{"swarm", func() billboard.Reader { return newBoardReader(conn, 0, players+1, objects) }},
		{"swarm-prefetched", func() billboard.Reader {
			br := newBoardReader(conn, 0, players+1, objects)
			for p := range players + 1 {
				br.want(p)
			}
			br.fetchVotes(2)
			return br
		}},
	} {
		t.Run(rc.name, func(t *testing.T) {
			checkReader(t, rc.r(), board, players+1, objects)
			if err := c.Err(); err != nil {
				t.Fatalf("client: %v", err)
			}
		})
	}
	if board.Round() != len(contractRounds) {
		t.Fatalf("board round %d, want %d", board.Round(), len(contractRounds))
	}
}

// checkReader compares every Reader method of got with want's answer, on
// a board of the given size.
func checkReader(t *testing.T, got billboard.Reader, want *billboard.Board, players, objects int) {
	t.Helper()
	for p := range players {
		if g, w := got.Votes(p), want.Votes(p); !slices.Equal(g, w) {
			t.Fatalf("Votes(%d) = %+v, want %+v", p, g, w)
		}
		if g, w := got.HasVote(p), want.HasVote(p); g != w {
			t.Fatalf("HasVote(%d) = %v, want %v", p, g, w)
		}
	}
	for i := range objects {
		if g, w := got.VoteCount(i), want.VoteCount(i); g != w {
			t.Fatalf("VoteCount(%d) = %d, want %d", i, g, w)
		}
		if g, w := got.NegativeCount(i), want.NegativeCount(i); g != w {
			t.Fatalf("NegativeCount(%d) = %d, want %d", i, g, w)
		}
	}
	if g, w := got.VotedObjects(), want.VotedObjects(); !slices.Equal(g, w) {
		t.Fatalf("VotedObjects() = %v, want %v", g, w)
	}
	if g, w := got.NumVotedObjects(), want.NumVotedObjects(); g != w {
		t.Fatalf("NumVotedObjects() = %d, want %d", g, w)
	}
	// One buffer serves every window read, as in a protocol.
	var gwc, wwc billboard.WindowCounts
	open := want.Round()
	for _, w := range []struct {
		name     string
		from, to int
	}{
		{"empty", 1, 2},
		{"one round", 0, 1},
		{"whole history", 0, open},
		{"past the open round", 2, open + 5},
		{"the open round", open, open + 1},
	} {
		got.CountVotesInWindow(w.from, w.to, &gwc)
		want.CountVotesInWindow(w.from, w.to, &wwc)
		if g, w2 := gwc.Objects(), wwc.Objects(); !slices.Equal(g, w2) {
			t.Fatalf("%s window [%d,%d): objects %v, want %v", w.name, w.from, w.to, g, w2)
		}
		for i := range objects {
			if gwc.Count(i) != wwc.Count(i) {
				t.Fatalf("%s window [%d,%d): object %d counted %d, want %d", w.name, w.from, w.to, i, gwc.Count(i), wwc.Count(i))
			}
		}
	}
	if g, w := got.Round(), want.Round(); g != w {
		t.Fatalf("Round() = %d, want %d", g, w)
	}
}
