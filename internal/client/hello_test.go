package client_test

// The Hello answer's cost table (wire protocol v14): none for a unit-cost
// universe, the universe's own table otherwise, on the first Hello and on
// every resume.

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/object"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/wire"
)

// serveUniverse starts an in-memory server over u for two players, both
// with token "tok", and a session grace so a dropped session resumes.
func serveUniverse(t *testing.T, u *object.Universe) string {
	t.Helper()
	srv, err := server.New(server.Config{
		Universe: u, Tokens: []string{"tok", "tok"}, Alpha: 1, Beta: u.Beta(), SessionGrace: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

func plantedUniverse(t *testing.T, m int, costs []float64) *object.Universe {
	t.Helper()
	u, err := object.NewPlanted(object.Planted{M: m, Good: 1, Costs: costs}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// TestUnitCostHelloShipsNoTable: a unit-cost universe's Hello answer
// carries no costs, and the client reads 1 for every object, from Cost and
// from every probe's result.
func TestUnitCostHelloShipsNoTable(t *testing.T) {
	const m = 16
	addr := serveUniverse(t, plantedUniverse(t, m, nil))
	tr := client.NewTransport(context.Background(), addr, client.Options{}, 0, 1, client.TransportMetrics{})
	conn := tr.NewConn("test", wire.Request{Player: 0, Token: "tok"}, 1)
	hello, err := conn.Dial()
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if hello.M != m || hello.Costs != nil {
		t.Fatalf("hello answer for %d unit costs: M %d, Costs %v", m, hello.M, hello.Costs)
	}

	c, err := client.Dial(addr, 1, "tok")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := range m {
		res, err := c.Probe(i)
		if err != nil {
			t.Fatal(err)
		}
		if c.Cost(i) != 1 || res.Cost != 1 {
			t.Fatalf("object %d: Cost %v, probe charged %v, want 1", i, c.Cost(i), res.Cost)
		}
	}
}

// TestParetoHelloShipsTheTable: a priced universe's table reaches the
// client whole, on the first Hello and on a resume, and the client reads
// each object's own cost.
func TestParetoHelloShipsTheTable(t *testing.T) {
	const m = 64
	u := plantedUniverse(t, m, object.ParetoCosts(m, 1.5, rng.New(5)))
	want := make([]float64, m)
	for i := range want {
		want[i] = u.Cost(i)
	}
	addr := serveUniverse(t, u)
	tr := client.NewTransport(context.Background(), addr, client.Options{}, 0, 1, client.TransportMetrics{})
	conn := tr.NewConn("test", wire.Request{Player: 0, Token: "tok"}, 1)
	defer conn.Close()
	for _, what := range []string{"first hello", "resume"} {
		hello, err := conn.Dial()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if !reflect.DeepEqual(hello.Costs, want) {
			t.Fatalf("%s: costs %v, want %v", what, hello.Costs, want)
		}
		conn.Close() // the next Dial resumes the session
	}

	c, err := client.Dial(addr, 1, "tok")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i, cost := range want {
		if c.Cost(i) != cost {
			t.Fatalf("object %d: Cost %v, want %v", i, c.Cost(i), cost)
		}
	}
}

// TestLargeUnitUniverseDials: a unit-cost universe whose table alone would
// overflow a frame (360k costs of three bytes) is served, and a probe of
// its last object is charged 1.
func TestLargeUnitUniverseDials(t *testing.T) {
	const m = 360_000
	addr := serveUniverse(t, plantedUniverse(t, m, nil))
	c, err := client.DialOptions(addr, 0, "tok", client.Options{Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Probe(m - 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.M() != m || res.Cost != 1 {
		t.Fatalf("M %d, probe of object %d charged %v; want M %d, cost 1", c.M(), m-1, res.Cost, m)
	}
}
