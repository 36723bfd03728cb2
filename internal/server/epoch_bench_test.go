package server_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/object"
	"repro/internal/rng"
	"repro/internal/server"
)

// benchModeCluster starts an in-memory server in the given mode and dials
// one client per player. Both rows of the operation-mode pair build it the
// same way: same universe, same fleet, only the server's mode differs.
func benchModeCluster(b *testing.B, mode server.Mode, players int) []*client.Client {
	b.Helper()
	u, err := object.NewPlanted(object.Planted{M: 1024, Good: 1}, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	tokens := make([]string, players)
	for i := range tokens {
		tokens[i] = fmt.Sprintf("t%d", i)
	}
	srv, err := server.New(server.Config{
		Universe: u, Tokens: tokens, Alpha: 1, Beta: u.Beta(),
		Mode: mode,
	})
	if err != nil {
		b.Fatal(err)
	}
	addr, err := srv.Start("")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	clients := make([]*client.Client, players)
	for p := range clients {
		c, err := client.Dial(addr, p, tokens[p])
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { c.Close() })
		clients[p] = c
	}
	return clients
}

// BenchmarkEpochPostRound prices one full posting round per iteration in
// both operation modes: eight players concurrently post a 128-report batch
// and close the round with one fused arrival each. Both modes run the same
// arrival path — the mode only picks a deadline policy, and no deadline is
// set here — so the pair guards that the two stay at parity; make
// bench-diff records it as BENCH_PR9.json.
func BenchmarkEpochPostRound(b *testing.B) {
	const players, perPlayer = 8, 128
	for _, mc := range []struct {
		name string
		mode server.Mode
	}{
		{"mode-sync", server.ModeSync},
		{"mode-epoch", server.ModeEpoch},
	} {
		b.Run(mc.name, func(b *testing.B) {
			clients := benchModeCluster(b, mc.mode, players)
			batches := make([][]client.BatchPost, players)
			for p := range batches {
				batch := make([]client.BatchPost, perPlayer)
				for i := range batch {
					batch[i] = client.BatchPost{Object: (p*perPlayer + i*17) % 1024, Value: 1}
				}
				batches[p] = batch
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				errs := make([]error, players)
				for p, c := range clients {
					wg.Add(1)
					go func() {
						defer wg.Done()
						_, errs[p] = c.PostBatch(batches[p], true)
					}()
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
