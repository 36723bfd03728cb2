package server_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/object"
	"repro/internal/rng"
	"repro/internal/server"
)

// TestCloseLeavesNoGoroutines checks the "no leak after Close"
// promise on the topologies that start the most goroutines: a durable
// server and a 3-node replica group. Each is driven through a few rounds
// and closed; within 2 s the goroutine count must fall back to what it was
// before the topology started.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"durable", runDurable},
		{"replicas-3", func(t *testing.T) {
			tokens := []string{"t0", "t1", "t2"}
			u := replicaUniverse(t)
			g := startReplicaGroup(t, 3, server.Config{
				Universe: u, Tokens: tokens, Alpha: 1, Beta: u.Beta(),
				SessionGrace: 5 * time.Second,
			}, nil)
			runReplicaWorkload(t, g, tokens, 4)
			for _, node := range g.nodes {
				if err := node.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			tc.run(t)
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<20)
					buf = buf[:runtime.Stack(buf, true)]
					t.Fatalf("%d goroutines 2s after Close, %d before the start:\n%s",
						runtime.NumGoroutine(), before, buf)
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// runDurable drives a durable server through runScript's rounds, then
// closes the server and its store.
func runDurable(t *testing.T) {
	t.Helper()
	const players, rounds = 4, 5
	u, err := object.NewPlanted(object.Planted{M: 64, Good: 4}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	tokens := make([]string, players)
	for i := range tokens {
		tokens[i] = "tok"
	}
	st, err := journal.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Universe: u, Tokens: tokens, Alpha: 1, Beta: u.Beta(),
		Persist: st, SnapshotEvery: 2, SessionGrace: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("")
	if err != nil {
		t.Fatal(err)
	}
	runScript(t, addr, players, rounds)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}
