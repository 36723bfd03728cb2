// Package repro is a Go reproduction of "Adaptive Collaboration in
// Peer-to-Peer Systems" (Awerbuch, Patt-Shamir, Peleg, Tuttle — ICDCS 2005).
//
// The paper studies honest players searching for a good object with the
// help of a shared billboard that Byzantine players can also write to. Its
// main result is Algorithm DISTILL, whose expected individual cost is
// O(1/(αβn) + (1/α)·log n/Δ) — constant when almost all players are honest
// — together with nearly matching lower bounds.
//
// This package is the public facade: it re-exports the model (universes,
// billboard, synchronous engine), the algorithms (DISTILL and its §4.1/§5
// variants, plus the baselines the paper compares against), the Byzantine
// adversary suite, the experiment registry E1…E13 that regenerates every
// quantitative claim, the networked billboard service, and the
// observability layer (metrics, traces, per-round observers). See
// README.md for a tour and EXPERIMENTS.md for paper-vs-measured results.
//
// Quickstart:
//
//	res, err := repro.Run(repro.SearchConfig{
//		Players: 1024, Objects: 1024, GoodObjects: 1,
//		Alpha: 0.9, Adversary: "spam-distinct", Seed: 42,
//	})
//	fmt.Println(res.MeanHonestProbes()) // ≈ constant, per Corollary 5
//
// # Observability
//
// The options-based flow, end to end — dial a billboard server with
// client metrics, run an instrumented simulation, then read the numbers
// back (or serve them: cmd/billboard-server exposes the same registry on
// -metrics-addr in Prometheus text format):
//
//	reg := repro.NewMetrics()
//
//	// Networked: a client fleet sharing one registry. The context cancels
//	// the dial and every later reconnect/backoff loop on the client.
//	c, err := repro.Dial(ctx, addr, player, token,
//		repro.WithRetries(16),
//		repro.WithMetrics(reg))
//
//	// In-process: a run streaming per-round stats into the registry
//	// and a JSONL trace. Observers never perturb the run: probes and
//	// rounds are bit-identical at a fixed seed with or without them.
//	tr := repro.NewTraceWriter(traceFile)
//	res, err := repro.Run(cfg, repro.WithObserver(repro.MultiObserver(
//		repro.NewMetricsObserver(reg),
//		repro.NewTraceObserver(tr, "demo", 0),
//	)))
//
//	// Read metrics back: a point-in-time name → value snapshot, or the
//	// Prometheus text form via repro.MetricsHandler(reg).
//	snap := reg.Snapshot()
//	fmt.Println(snap["sim_rounds_total"], snap["client_retries_total"])
//
// # Error contract
//
// The networked API reports terminal conditions through three sentinel
// errors, matched with errors.Is: [ErrServerClosed] (the endpoint is dead
// or unreachable — the dial or a reconnect exhausted its retries without
// completing a handshake), [ErrSessionExpired] (the server no longer holds
// the client's session; its votes and dedup window are gone), and
// [ErrBarrierDeadline] (a sync-mode server's round deadline expelled the
// player as a straggler; an epoch-mode server seals past stragglers
// instead and never expels). Everything short of these — dropped connections, torn
// frames, lost responses, server restarts, leader failovers — is
// absorbed by the client's reconnect/resume/dedup machinery and never
// surfaces to callers.
package repro
