package repro

import (
	"context"

	"repro/internal/swarm"
)

// This file is the options-based entry point to the swarm driver:
//
//	res, err := repro.RunSwarm(ctx, repro.SwarmConfig{
//		Addr: addr, From: 0, To: 1_000_000, Token: token,
//	},
//		repro.WithSwarmGroups(8),
//		repro.WithMetrics(reg))
//
// A swarm drives a block of players over a handful of pipelined
// connections — an event-loop scheduler over plain player state instead of
// a goroutine and TCP connection per player — and commits the billboard
// digest a fleet of independent per-player DISTILL clients would: same
// player streams, same per-round ordering. RunDistributedCluster and
// cluster-backed RunScenario drive their honest players through it.

// SwarmConfig describes one swarm: a contiguous player block [From, To)
// driven against one billboard service. Addr, From/To, and Token (the
// server's SwarmToken credential) are required; everything else defaults.
type SwarmConfig = swarm.Config

// SwarmResult is a completed swarm run.
type SwarmResult = swarm.Result

// SwarmPlayerResult is one swarm player's outcome.
type SwarmPlayerResult = swarm.PlayerResult

// RunSwarm drives the configured player block to completion: every player
// either finds a good object or times out at the round bound. The context
// cancels the run, including mid-backoff and mid-barrier. The server must
// have been configured with a SwarmToken matching cfg.Token.
//
// SwarmOption and its constructors live in options.go with the rest of the
// unified option layer: the layout knobs (WithSwarmGroups, WithSwarmChunk,
// WithSwarmWindow, WithSwarmFallbacks) plus the shared WithMetrics,
// WithObserver, WithLogf, and WithClientOptions.
func RunSwarm(ctx context.Context, cfg SwarmConfig, opts ...SwarmOption) (*SwarmResult, error) {
	for _, opt := range opts {
		opt.applySwarm(&cfg)
	}
	return swarm.Run(ctx, cfg)
}
