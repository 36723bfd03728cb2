package dist

// The per-player reference fleet: one goroutine, one client.Client and one
// core.Distill instance per honest player, each deriving its randomness as
// rng.New(seed).Split(player). The swarm shares one schedule across the
// whole block; the parity tests hand this fleet to runCluster to pin that
// the shared-schedule swarm commits what independent per-player instances
// commit, and one chaos row runs it through fault injection, which keeps
// client.Client's session resume and recorded-response replay covered.

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sim"
)

// playerFleet drives each honest player as its own TCP client, under its own
// fault-stream label (its player id), and returns their results in player
// order.
func playerFleet(ctx context.Context, cfg *ClusterConfig, addr string, tokens []string, _ string,
	playerOptions func(label int) (client.Options, error)) ([]*HonestResult, error) {
	results := make([]*HonestResult, cfg.Honest)
	errs := make([]error, cfg.Honest)
	var wg sync.WaitGroup
	for p := 0; p < cfg.Honest; p++ {
		opt, err := playerOptions(p)
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func(p int, opt client.Options) {
			defer wg.Done()
			results[p], errs[p] = runHonestPlayer(ctx, addr, p, tokens[p], cfg.Params, cfg.Seed, cfg.MaxRounds, opt)
		}(p, opt)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// runHonestPlayer connects to the billboard server at addr and runs DISTILL
// for one player until it probes a good object (local testing) or maxRounds
// elapse. The player's randomness derives from seed alone.
func runHonestPlayer(ctx context.Context, addr string, player int, token string, params core.Params, seed uint64, maxRounds int, opt client.Options) (*HonestResult, error) {
	c, err := client.DialContext(ctx, addr, player, token, opt)
	if err != nil {
		return nil, err
	}
	defer c.Close()

	cached := client.NewCached(c)
	d := core.NewDistill(params)
	if err := d.Init(sim.Setup{
		N:        c.N(),
		Alpha:    c.Alpha(),
		Beta:     c.Beta(),
		Universe: c,
		Board:    cached, // the player's reader over its client session
		Rng:      rng.New(seed).Split(uint64(player)),
	}); err != nil {
		return nil, fmt.Errorf("dist: player %d init: %w", player, err)
	}

	res := &HonestResult{Player: player}
	var probeBuf []sim.Probe
	var batch []client.BatchPost
	for round := 0; round < maxRounds; round++ {
		probeBuf = d.Probes(round, []int{player}, probeBuf[:0])
		found := false
		batch = batch[:0]
		for _, pr := range probeBuf {
			pres, err := c.Probe(pr.Object)
			if err != nil {
				return nil, fmt.Errorf("dist: player %d probe: %w", player, err)
			}
			res.Probes++
			positive := c.LocalTesting() && pres.Good
			batch = append(batch, client.BatchPost{Object: pr.Object, Value: pres.Value, Positive: positive})
			if positive {
				found = true
			}
		}
		// Protocol v3: the round's posts and its barrier travel in one
		// frame, so the round costs O(1) frames regardless of probe count.
		if _, err := c.PostBatch(batch, true); err != nil {
			return nil, fmt.Errorf("dist: player %d post-batch barrier: %w", player, err)
		}
		cached.Invalidate() // board state changed at the round boundary
		// The Reader methods behind DISTILL cannot return errors; surface
		// any transport failure they recorded before trusting this round's
		// advice-driven decisions.
		if err := c.Err(); err != nil {
			return nil, fmt.Errorf("dist: player %d board read: %w", player, err)
		}
		if found {
			res.Found = true
			res.Rounds = round + 1
			if err := c.Done(); err != nil {
				return nil, fmt.Errorf("dist: player %d done: %w", player, err)
			}
			return res, nil
		}
	}
	res.Rounds = maxRounds
	res.TimedOut = true
	_ = c.Done()
	return res, nil
}
