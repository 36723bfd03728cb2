package server

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"

	"repro/internal/journal"
)

// TestRecoverRefusesBoardlessSnapshot: a snapshot that holds no billboard,
// as a coordinator of an earlier build wrote while it kept its board in
// stores of their own, is refused at recovery with an error, instead of
// leaving a server with no board for the first post to panic on.
func TestRecoverRefusesBoardlessSnapshot(t *testing.T) {
	const players = 2
	// The earlier build's snapshot: serverSnap's fields plus the round,
	// which such a snapshot carried in place of a board.
	type boardlessSnap struct {
		Board      []byte
		Round      int
		Registered []int
		Active     []int
		ForceDone  map[int]int
		Probes     []int
		Cost       []float64
		Satisfied  []bool
		Sessions   []sessionSnap
	}
	var snap bytes.Buffer
	if err := gob.NewEncoder(&snap).Encode(&boardlessSnap{
		Round: 3, Registered: []int{0, 1}, Active: []int{0, 1},
		Probes: make([]int, players), Cost: make([]float64, players), Satisfied: make([]bool, players),
	}); err != nil {
		t.Fatal(err)
	}
	st, err := journal.OpenStore(t.TempDir(), journal.SyncCommit)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Rotate(snap.Bytes()); err != nil {
		t.Fatal(err)
	}
	cfg := rigConfig(t, ModeSync, players)
	cfg.Persist = st
	s, err := New(cfg)
	if err == nil {
		s.Close()
		t.Fatal("a server recovered from a snapshot holding no billboard")
	}
	if !strings.Contains(err.Error(), "no billboard") {
		t.Fatalf("recovery failed with %q, want the missing billboard named", err)
	}
}
