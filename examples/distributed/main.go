// Distributed: the deployment shape the paper describes — independent
// parties talking to a shared billboard service. This example wires the
// pieces by hand to show the whole options-based flow: start a billboard
// server with a metrics registry, Dial one TCP client per player with
// client-side metrics sharing the same registry, drive per-player DISTILL
// instances for the honest players while Byzantine players lie over the
// same wire protocol, and finally read the run back out of the registry
// (the numbers cmd/billboard-server serves on -metrics-addr).
//
// For the one-call version, see repro.RunDistributedCluster: it drives the
// honest players through the swarm scheduler over a few pipelined
// connections instead of one client each.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"

	"repro"
)

const (
	honest    = 48
	byzantine = 16
	objects   = 256
	maxRounds = 4096
	seed      = 11
)

func main() {
	log.SetFlags(0)

	// One registry observes everything: the server feeds the server_* and
	// billboard_* families, every client the client_* family.
	reg := repro.NewMetrics()

	u, err := repro.NewPlantedUniverse(repro.Planted{M: objects, Good: 2}, repro.NewRNG(seed))
	if err != nil {
		log.Fatal(err)
	}
	tokens := make([]string, honest+byzantine)
	src := repro.NewRNG(seed)
	for i := range tokens {
		tokens[i] = fmt.Sprintf("tok-%d-%016x", i, src.Uint64())
	}
	srv, err := repro.NewBillboardServer(repro.BillboardServerConfig{
		Universe: u, Tokens: tokens, Alpha: 0.75, Beta: u.Beta(),
		Metrics: reg,
	})
	if err != nil {
		log.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("billboard server on %s; %d TCP clients (%d honest, %d Byzantine)\n",
		addr, honest+byzantine, honest, byzantine)

	// Byzantine players: probe until a bad object turns up, lie that it is
	// good, then idle through barriers so rounds keep committing.
	stop := make(chan struct{})
	var liars sync.WaitGroup
	for p := honest; p < honest+byzantine; p++ {
		liars.Add(1)
		go func(p int) {
			defer liars.Done()
			if err := runLiar(addr, p, tokens[p], reg, stop); err != nil {
				log.Printf("byzantine player %d: %v", p, err)
			}
		}(p)
	}

	// Honest players: one goroutine per player, each with its own client,
	// cache, and DISTILL instance — independent parties in one process.
	type outcome struct {
		player, probes, rounds int
		found                  bool
	}
	results := make([]outcome, honest)
	var wg sync.WaitGroup
	for p := 0; p < honest; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			probes, rounds, found, err := runHonest(addr, p, tokens[p], reg)
			if err != nil {
				log.Printf("honest player %d: %v", p, err)
				return
			}
			results[p] = outcome{p, probes, rounds, found}
		}(p)
	}
	wg.Wait()
	close(stop)
	liars.Wait()

	allFound, totalProbes := true, 0
	slowest := results[0]
	for _, r := range results {
		allFound = allFound && r.found
		totalProbes += r.probes
		if r.probes > slowest.probes {
			slowest = r
		}
	}
	fmt.Printf("\nall honest players found a good object: %v\n", allFound)
	fmt.Printf("mean probes per honest player: %.1f\n", float64(totalProbes)/honest)
	fmt.Printf("slowest player %d paid %d probes\n", slowest.player, slowest.probes)

	// Read the run back out of the shared registry — the same numbers a
	// Prometheus scrape of cmd/billboard-server -metrics-addr would see.
	snap := reg.Snapshot()
	fmt.Println("\nobservability (shared metrics registry):")
	for _, name := range []string{
		"server_rounds_total",
		`server_requests_total{type="post-batch"}`,
		"billboard_posts_total",
		"client_dials_total",
		"client_frames_sent_total",
	} {
		fmt.Printf("  %-42s %.0f\n", name, snap[name])
	}
}

// runHonest drives one honest player's DISTILL over the wire: probe per
// the protocol's schedule, batch the round's posts with the barrier into
// one frame, and halt upon probing a good object.
func runHonest(addr string, player int, token string, reg *repro.Metrics) (probes, rounds int, found bool, err error) {
	c, err := repro.Dial(context.Background(), addr, player, token,
		repro.WithRetries(8),
		repro.WithMetrics(reg))
	if err != nil {
		return 0, 0, false, err
	}
	defer c.Close()

	cached := repro.NewCachedReader(c)
	d := repro.NewDistill(repro.DistillParams{})
	if err := d.Init(repro.ProtocolSetup{
		N:        c.N(),
		Alpha:    c.Alpha(),
		Beta:     c.Beta(),
		Universe: c,
		Board:    cached,
		Rng:      repro.NewRNG(seed).Split(uint64(player)),
	}); err != nil {
		return 0, 0, false, err
	}

	var probeBuf []repro.ProtocolProbe
	var batch []repro.BatchPost
	for round := 0; round < maxRounds; round++ {
		probeBuf = d.Probes(round, []int{player}, probeBuf[:0])
		batch = batch[:0]
		good := false
		for _, pr := range probeBuf {
			res, err := c.Probe(pr.Object)
			if err != nil {
				return probes, round, false, err
			}
			probes++
			positive := c.LocalTesting() && res.Good
			batch = append(batch, repro.BatchPost{Object: pr.Object, Value: res.Value, Positive: positive})
			good = good || positive
		}
		// Protocol v3: the round's posts and its barrier share one frame.
		if _, err := c.PostBatch(batch, true); err != nil {
			return probes, round, false, err
		}
		cached.Invalidate()
		if err := c.Err(); err != nil {
			return probes, round, false, err
		}
		if good {
			return probes, round + 1, true, c.Done()
		}
	}
	_ = c.Done()
	return probes, maxRounds, false, nil
}

// runLiar is a Byzantine player: it posts a false positive for a bad
// object and then keeps arriving at barriers until stop closes.
func runLiar(addr string, player int, token string, reg *repro.Metrics, stop <-chan struct{}) error {
	c, err := repro.Dial(context.Background(), addr, player, token, repro.WithMetrics(reg))
	if err != nil {
		return err
	}
	defer c.Close()

	target := -1
	for i := 0; i < c.M(); i++ {
		obj := (player*31 + i) % c.M()
		res, err := c.Probe(obj)
		if err != nil {
			return err
		}
		if !res.Good {
			target = obj
			break
		}
	}
	if target >= 0 {
		if err := c.Post(target, 1, true); err != nil {
			return err
		}
	}
	for {
		select {
		case <-stop:
			return c.Done()
		default:
		}
		if _, err := c.Barrier(); err != nil {
			// Server closed or we were kicked: either way we are finished.
			return nil
		}
	}
}
