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

// benchShardCluster mirrors benchSetup but brings the server up with the
// given shard count and a client per player, so the 1/2/4/16-shard variants
// below differ only in lane count and the posting load actually contends.
func benchShardCluster(b *testing.B, shards, players int) []*client.Client {
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
		Shards: shards,
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

// BenchmarkShardedPostBatch measures one full posting round per iteration:
// eight players concurrently send a 128-report batch that ends their round,
// one frame each on the primary connection. Every case accepts under the
// coordinator mutex; the sharded cases split each batch by lane, write each
// lane's part to its pending buffer, and commit through the per-round shard
// barrier and the parallel lane seal. The spread prices what the lanes cost
// a posting round.
func BenchmarkShardedPostBatch(b *testing.B) {
	const players, perPlayer = 8, 128
	for _, shards := range []int{1, 2, 4, 16} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			clients := benchShardCluster(b, shards, players)
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

// BenchmarkShardedWindowQuery measures the committed-round window read after
// a few sealed rounds: on a sharded server the count is a scatter-gather
// merge of per-lane windows (served from the per-lane read caches once warm).
func BenchmarkShardedWindowQuery(b *testing.B) {
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			c := benchShardCluster(b, shards, 1)[0]
			const rounds = 8
			for r := 0; r < rounds; r++ {
				batch := make([]client.BatchPost, 32)
				for i := range batch {
					batch[i] = client.BatchPost{Object: (r*32 + i) % 1024, Value: 1, Positive: true}
				}
				if _, err := c.PostBatch(batch, true); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = c.CountVotesInWindow(0, rounds)
			}
		})
	}
}
