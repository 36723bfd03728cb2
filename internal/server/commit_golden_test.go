package server_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/object"
	"repro/internal/rng"
	"repro/internal/server"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// startPlanted starts a server over a planted LocalTesting universe whose
// players all hold the token "tok".
func startPlanted(t *testing.T, players int, cfg func(*server.Config)) (string, *server.Server) {
	t.Helper()
	u, err := object.NewPlanted(object.Planted{M: 64, Good: 4}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	tokens := make([]string, players)
	for i := range tokens {
		tokens[i] = "tok"
	}
	sc := server.Config{Universe: u, Tokens: tokens, Alpha: 1, Beta: u.Beta()}
	if cfg != nil {
		cfg(&sc)
	}
	srv, err := server.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr, srv
}

// runScript drives a deterministic multi-round script through real clients:
// every player posts a scripted mix of positives and negatives each round
// and ends it with a combined batch+barrier frame.
func runScript(t *testing.T, addr string, players, rounds int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, players)
	for p := 0; p < players; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			c, err := client.Dial(addr, p, "tok")
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for r := 0; r < rounds; r++ {
				// Two positives per round (the second exceeding the vote
				// budget in later rounds) and one negative, spread across
				// objects by player and round.
				batch := []client.BatchPost{
					{Object: (p*7 + r*13) % c.M(), Value: 1, Positive: true},
					{Object: (p*11 + r*17 + 5) % c.M(), Value: 1, Positive: true},
					{Object: (p*3 + r*29 + 9) % c.M(), Value: 0, Positive: false},
				}
				if _, err := c.PostBatch(batch, true); err != nil {
					errs <- fmt.Errorf("player %d round %d: %w", p, r, err)
					return
				}
			}
			errs <- c.Done()
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// runSeededScript drives a seeded pseudo-random multi-round workload
// through real clients: every player draws its per-round batch (size, object
// spread, positive/negative mix) from its own deterministic rng stream, so
// the committed content is independent of goroutine scheduling. The batches
// deliberately collide on objects and overrun the vote budget so vote
// derivation (budget f, first-vote-per-pair) does real work every round.
func runSeededScript(t *testing.T, addr string, players, rounds int, seed uint64) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, players)
	for p := 0; p < players; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			c, err := client.Dial(addr, p, "tok")
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			r1 := rng.New(seed + uint64(p)*1_000_003)
			for r := 0; r < rounds; r++ {
				n := 1 + int(r1.Uint64n(5))
				batch := make([]client.BatchPost, 0, n)
				for i := 0; i < n; i++ {
					batch = append(batch, client.BatchPost{
						Object:   int(r1.Uint64n(uint64(c.M()))),
						Value:    float64(r1.Uint64n(16)) / 16,
						Positive: r1.Uint64n(3) > 0,
					})
				}
				if _, err := c.PostBatch(batch, true); err != nil {
					errs <- fmt.Errorf("player %d round %d: %w", p, r, err)
					return
				}
			}
			errs <- c.Done()
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardCommitDeterminismGolden pins the commit path's digest bit for
// bit: the seeded workload must reproduce the digest recorded in testdata.
// A player's posting order is the only ordering FirstPositive vote
// derivation depends on; any reordering of the commit shows up here as a
// byte diff. Refresh with -update only when the workload script itself
// changes.
func TestShardCommitDeterminismGolden(t *testing.T) {
	const players, rounds, seed = 6, 8, 0xADA9
	goldenPath := filepath.Join("testdata", "commit_digest.golden")

	addr, srv := startPlanted(t, players, nil)
	runSeededScript(t, addr, players, rounds, seed)
	digest := srv.Digest()
	if len(digest) == 0 {
		t.Fatal("empty digest")
	}
	if srv.Round() != rounds {
		t.Fatalf("round %d, want %d", srv.Round(), rounds)
	}

	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, digest, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s (%d bytes)", goldenPath, len(digest))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (run with -update to record): %v", err)
	}
	if !bytes.Equal(digest, want) {
		t.Fatalf("digest diverged from the recorded golden:\ngot:\n%s\nwant:\n%s", digest, want)
	}
}
