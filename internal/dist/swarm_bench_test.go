package dist

// Fleet benchmarks, recorded as BENCH_PR8.json by `make bench-diff`: the
// same full cluster search at growing fleet sizes, reporting ns/player —
// 2k and 10k players in BenchmarkClusterFleet, 100k and 1M in
// BenchmarkSwarmScale.

import (
	"context"
	"testing"

	"repro/internal/object"
	"repro/internal/rng"
)

func benchFleet(b *testing.B, honest int) {
	u, err := object.NewPlanted(object.Planted{M: 256, Good: 8}, rng.New(77))
	if err != nil {
		b.Fatal(err)
	}
	cfg := ClusterConfig{
		Universe:  u,
		Honest:    honest,
		Seed:      42,
		MaxRounds: 8,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunCluster(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !res.AllFound {
			b.Fatalf("fleet of %d did not finish in %d rounds", honest, cfg.MaxRounds)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*honest), "ns/player")
}

func BenchmarkClusterFleet(b *testing.B) {
	b.Run("swarm-2k", func(b *testing.B) { benchFleet(b, 2_000) })
	b.Run("swarm-10k", func(b *testing.B) { benchFleet(b, 10_000) })
}

func BenchmarkSwarmScale(b *testing.B) {
	b.Run("players-100k", func(b *testing.B) { benchFleet(b, 100_000) })
	b.Run("players-1M", func(b *testing.B) { benchFleet(b, 1_000_000) })
}
