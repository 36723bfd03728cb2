package server_test

import (
	"testing"

	"repro/internal/client"
	"repro/internal/object"
	"repro/internal/rng"
	"repro/internal/server"
)

func benchSetup(b *testing.B) *client.Client {
	b.Helper()
	u, err := object.NewPlanted(object.Planted{M: 1024, Good: 1}, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Universe: u, Tokens: []string{"t"}, Alpha: 1, Beta: u.Beta(),
	})
	if err != nil {
		b.Fatal(err)
	}
	addr, err := srv.Start("")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	c, err := client.Dial(addr, 0, "t")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return c
}

func BenchmarkRPCPost(b *testing.B) {
	c := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Post(i%1024, 0, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRPCProbe(b *testing.B) {
	c := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Probe(i % 1024); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRPCVotesRead(b *testing.B) {
	c := client.NewCached(benchSetup(b))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Invalidate()
		_ = c.Votes(0)
	}
}

func BenchmarkRPCBarrierSinglePlayer(b *testing.B) {
	c := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Barrier(); err != nil {
			b.Fatal(err)
		}
	}
}
