package swarm_test

// Swarm scheduler tests against an in-process server: the helpers every
// test of the package shares, and the determinism contract. Kill/restart
// stress lives in rollback_test.go and internal/dist's chaos tests.

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/object"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/swarm"
)

const stressToken = "swarm-stress-token"

// startServer boots an in-memory billboard server sized for n players.
func startServer(t *testing.T, u *object.Universe, n int) (*server.Server, string) {
	t.Helper()
	srv, err := server.New(server.Config{
		Universe:        u,
		Tokens:          make([]string, n),
		Alpha:           1.0,
		Beta:            u.Beta(),
		SessionGrace:    20 * time.Second,
		BarrierDeadline: 60 * time.Second,
		SwarmToken:      stressToken,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	addr, err := srv.Start("")
	if err != nil {
		t.Fatal(err)
	}
	return srv, addr
}

func stressUniverse(t *testing.T) *object.Universe {
	t.Helper()
	u, err := object.NewPlanted(object.Planted{M: 64, Good: 4}, rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func stressClientOpts() client.Options {
	return client.Options{
		Retries: 48, BackoffBase: time.Millisecond, BackoffMax: 20 * time.Millisecond,
		CallTimeout: 10 * time.Second, BarrierTimeout: 60 * time.Second,
	}
}

// runSwarm drives n players against addr and returns the run.
func runSwarm(t *testing.T, addr string, n, groups int) *swarm.Result {
	t.Helper()
	res, err := swarm.Run(context.Background(), swarm.Config{
		Addr: addr, From: 0, To: n, Token: stressToken,
		Seed: 42, MaxRounds: 256, Groups: groups,
		Client: stressClientOpts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found != n {
		t.Fatalf("%d of %d players found an object", res.Found, n)
	}
	return res
}

// TestSwarmDeterministicDigest pins the debugging contract: the same seed
// produces the same committed billboard, bit for bit, run after run.
func TestSwarmDeterministicDigest(t *testing.T) {
	u := stressUniverse(t)
	const n = 500
	run := func() []byte {
		srv, addr := startServer(t, u, n)
		runSwarm(t, addr, n, 3)
		return srv.Digest()
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Fatal("same seed produced different billboards")
	}
}
