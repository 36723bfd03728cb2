package billboard

import (
	"reflect"
	"testing"
)

func populatedBoard(t *testing.T) *Board {
	t.Helper()
	b := mustBoard(t, Config{Players: 4, Objects: 8, VotesPerPlayer: 2, KeepLog: true})
	posts := []Post{
		{Player: 0, Object: 3, Value: 1, Positive: true},
		{Player: 1, Object: 3, Value: 1, Positive: true},
		{Player: 2, Object: 5, Value: 0, Positive: false},
	}
	for _, p := range posts {
		if err := b.Post(p); err != nil {
			t.Fatal(err)
		}
	}
	b.EndRound()
	if err := b.Post(Post{Player: 2, Object: 6, Value: 1, Positive: true}); err != nil {
		t.Fatal(err)
	}
	b.EndRound()
	return b
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	original := populatedBoard(t)
	data, err := original.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(data)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Round() != original.Round() {
		t.Fatalf("round %d != %d", restored.Round(), original.Round())
	}
	for p := 0; p < 4; p++ {
		if !reflect.DeepEqual(restored.Votes(p), original.Votes(p)) {
			t.Fatalf("player %d votes differ", p)
		}
	}
	if !reflect.DeepEqual(restored.VotedObjects(), original.VotedObjects()) {
		t.Fatal("voted objects differ")
	}
	if restored.NegativeCount(5) != 1 {
		t.Fatal("negative count lost")
	}
	if !reflect.DeepEqual(windowMap(restored, 0, 2), windowMap(original, 0, 2)) {
		t.Fatal("vote-event windows differ")
	}
	if len(restored.Log()) != len(original.Log()) {
		t.Fatal("log lost")
	}
	// The restored board is live: new posts commit with continuing rounds
	// and the vote cap still binds (player 0 has one slot left of f=2).
	if err := restored.Post(Post{Player: 0, Object: 7, Value: 1, Positive: true}); err != nil {
		t.Fatal(err)
	}
	if err := restored.Post(Post{Player: 0, Object: 1, Value: 1, Positive: true}); err != nil {
		t.Fatal(err)
	}
	restored.EndRound()
	if got := len(restored.Votes(0)); got != 2 {
		t.Fatalf("restored vote cap broken: %d votes", got)
	}
	events := restored.WindowEvents(2, 3)
	if len(events) != 1 || events[0].Round != 2 {
		t.Fatalf("continuing rounds broken: %+v", events)
	}
}

func TestSnapshotRejectsPending(t *testing.T) {
	b := mustBoard(t, Config{Players: 1, Objects: 1})
	if err := b.Post(Post{Player: 0, Object: 0, Value: 1, Positive: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Snapshot(); err == nil {
		t.Fatal("snapshot with pending posts accepted")
	}
}

func TestRestoreGarbage(t *testing.T) {
	if _, err := Restore([]byte("junk")); err == nil {
		t.Fatal("garbage restore accepted")
	}
}

func TestSnapshotEmptyBoard(t *testing.T) {
	b := mustBoard(t, Config{Players: 2, Objects: 2})
	data, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(data)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Round() != 0 || restored.TotalVotes() != 0 {
		t.Fatal("empty board round trip broken")
	}
}
