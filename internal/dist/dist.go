// Package dist orchestrates fully distributed runs on localhost: a billboard
// service (one coordinator or a replica group), the honest fleet driven by
// the swarm scheduler (internal/swarm) over a few pipelined connections,
// and Byzantine players lying over the same wire protocol, each through its
// own client connection. This is the deployment
// shape the paper describes — independent parties and a shared billboard
// service — and doubles as an end-to-end proof that the protocol code is
// engine-independent.
//
// A cluster can also run through deterministic fault injection
// (ClusterConfig.Chaos.Fault → internal/faultnet): connections drop, stall, and
// tear mid-frame, while session resume and request dedup keep the search
// semantics identical — the chaos tests assert the final billboard digest
// matches the fault-free run on the same seed, with zero double-charged
// probes.
package dist

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/journal"
	"repro/internal/object"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/swarm"
)

// HonestResult is one honest player's outcome.
type HonestResult = swarm.PlayerResult

// runByzantineSpam connects as a dishonest player that probes one bad
// object, lies that it is good, and sends Done once the round holding the
// lie has committed. The lie rides in its arrival frame, which is retried
// until its round commits, so a restart or failover that rolls the round
// back cannot drop it. Its footprint is that one round whatever the timing,
// so a run's round count is paced by the honest players alone.
func runByzantineSpam(ctx context.Context, addr string, player int, token string, opt client.Options) error {
	c, err := client.DialContext(ctx, addr, player, token, opt)
	if err != nil {
		return err
	}
	defer c.Close()

	// Pick a target: scan from a player-dependent offset for a bad object
	// (Byzantine players know the world in the worst case; here they learn
	// by probing, which is free to them in spirit — the engine's accounting
	// only matters for honest costs).
	target := -1
	for i := 0; i < c.M(); i++ {
		obj := (player*31 + i) % c.M()
		pres, err := c.Probe(obj)
		if err != nil {
			return err
		}
		if !pres.Good {
			target = obj
			break
		}
	}
	var lie []client.BatchPost
	if target >= 0 {
		lie = append(lie, client.BatchPost{Object: target, Value: 1, Positive: true})
	}
	if _, err := c.PostBatch(lie, true); err != nil {
		// Server closed or we were kicked: either way we are finished.
		return nil
	}
	return c.Done()
}

// Topology shapes the billboard service the players run against: the
// coordinator replica group.
type Topology struct {
	// Replicas, when > 1, runs the coordinator as a replica group of this
	// size (odd, >= 3; see server.StartReplica) instead of a single server:
	// the leader quorum-commits every round into the group before clients
	// observe it, and a follower takes over if the leader dies. Requires
	// PersistDir (each member journals under its own subdirectory). 0 or 1
	// is the classic single coordinator — same code path, byte-identical
	// behavior. The group commits on a majority quorum.
	Replicas int
}

// Chaos schedules a run's fault machinery: deterministic transport fault
// injection and the kill/restart hooks. The zero value is a fault-free run.
type Chaos struct {
	// Fault, when non-nil, injects deterministic transport faults (drops,
	// delays, torn writes, partitions) into every client connection via
	// internal/faultnet. Pair it with a SessionGrace so dropped players can
	// resume, and Client retry knobs sized for the injection rate.
	Fault *faultnet.Config
	// KillAtRound, when > 0, kills the server inside the round of this
	// number, or the first later one that has posts — with clients in
	// flight, once the round has journaled a post it has not committed —
	// and restarts it from PersistDir on the same address. The
	// crash-recovery chaos hook: honest players must ride through it on
	// session resume alone, and the restart rolls the open round back.
	KillAtRound int
	// KillLeaderAtRound, when > 0, crash-stops the replica-group leader the
	// moment its committed round counter reaches this value — mid-round,
	// with clients in flight. The failover chaos hook: the survivors elect
	// a new leader which replays the quorum-committed prefix, discards the
	// uncommitted tail, and serves the retried requests. Requires
	// Topology.Replicas > 1.
	KillLeaderAtRound int
}

// Drive tunes the swarm scheduler (internal/swarm) that drives the honest
// fleet over a few pipelined connections. The zero value takes the swarm
// defaults in a closed world.
type Drive struct {
	// SwarmGroups forwards to swarm.Config.Groups (connection groups);
	// zero takes the swarm default (4).
	SwarmGroups int
	// Dynamics, when non-nil, opens the world: honest arrivals and
	// departures flow through the hook at round boundaries (see
	// sim.Dynamics and swarm.Config.Dynamics).
	Dynamics sim.Dynamics
}

// ClusterConfig describes a full distributed run on localhost: the world
// and fleet sizes flat, the service shape under Topology, the fault
// machinery under Chaos, and the fleet's swarm layout and dynamics under
// Drive.
type ClusterConfig struct {
	// Universe is the ground truth (required, local testing).
	Universe *object.Universe
	// Honest and Byzantine are player counts (honest >= 1).
	Honest    int
	Byzantine int
	// Params parameterizes every honest player's DISTILL.
	Params core.Params
	// Seed drives all randomness (tokens, player streams).
	Seed uint64
	// MaxRounds bounds each honest player (default 4096).
	MaxRounds int

	// SessionGrace and BarrierDeadline configure the server's fault
	// tolerance (see server.Config).
	SessionGrace    time.Duration
	BarrierDeadline time.Duration
	// Mode selects what an expired BarrierDeadline does to stragglers:
	// server.ModeSync force-Dones them, server.ModeEpoch seals the round
	// without them (see server.Config.Mode).
	Mode server.Mode
	// PersistDir, when non-empty, runs the server durably: a journal.Store
	// in that directory records every state change, and a restart recovers
	// from it (see server.Config.Persist). Required for Chaos.KillAtRound.
	PersistDir string
	// SnapshotEvery rotates the persist store every k committed rounds
	// (see server.Config.SnapshotEvery).
	SnapshotEvery int

	// Topology shapes the service (the replica group).
	Topology Topology
	// Chaos schedules fault injection and kill/restart hooks.
	Chaos Chaos
	// Drive tunes the swarm that drives the honest fleet.
	Drive Drive

	// Client tunes the retry/backoff/deadline behavior of every connection:
	// the swarm's and each Byzantine player's.
	Client client.Options
	// Logf receives server operational events (resume, lease expiry,
	// force-done); nil discards them.
	Logf func(format string, args ...any)
}

// ClusterResult aggregates a distributed run.
type ClusterResult struct {
	Honest   []*HonestResult
	Rounds   int // server round count at teardown
	AllFound bool
	// Departed counts honest players that left via Drive.Dynamics without
	// finding an object (they also clear AllFound).
	Departed   int
	MeanProbes float64
	// ServerProbes is the per-player probe count as charged by the server.
	// For honest players it equals HonestResult.Probes exactly when no
	// retried probe was double-charged — the dedup invariant the chaos
	// tests pin.
	ServerProbes []int
	// BoardDigest is the canonical digest of the final committed billboard
	// (see billboard.Digest): byte-identical across runs that committed the
	// same posts in the same rounds, faults or not.
	BoardDigest []byte
	// Restarts counts server kill/restart cycles performed (KillAtRound).
	Restarts int
	// Failovers counts leaders crash-stopped by KillLeaderAtRound; each one
	// forced a quorum takeover by a surviving replica.
	Failovers int
}

// RunCluster starts a billboard server on a loopback port, drives the
// honest fleet through the swarm and every Byzantine player as its own TCP
// client, and tears everything down. The swarm and every Byzantine client
// run under ctx: once it is done, the run ends with its error.
func RunCluster(ctx context.Context, cfg ClusterConfig) (*ClusterResult, error) {
	return runCluster(ctx, cfg, swarmFleet)
}

// fleet drives the honest players [0, cfg.Honest) against the service at
// addr to completion, under ctx, and returns their results in player
// order. tokens are
// the per-player credentials, swarmToken the block credential, and
// playerOptions yields the client options for one fault-stream label.
// RunCluster always passes swarmFleet; the parity tests pass a per-player
// reference fleet.
type fleet func(ctx context.Context, cfg *ClusterConfig, addr string, tokens []string, swarmToken string,
	playerOptions func(label int) (client.Options, error)) ([]*HonestResult, error)

func runCluster(ctx context.Context, cfg ClusterConfig, honestFleet fleet) (*ClusterResult, error) {
	if cfg.Universe == nil {
		return nil, fmt.Errorf("dist: Universe is required")
	}
	if cfg.Honest < 1 {
		return nil, fmt.Errorf("dist: need at least one honest player")
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = 4096
	}
	n := cfg.Honest + cfg.Byzantine
	tokens, swarmToken := mintTokens(cfg.Seed, n)
	start := startCoordinator
	if cfg.Topology.Replicas > 1 {
		start = startReplicas
	}
	svc, err := start(&cfg, server.Config{
		Universe:        cfg.Universe,
		Tokens:          tokens,
		Alpha:           float64(cfg.Honest) / float64(n),
		Beta:            cfg.Universe.Beta(),
		SessionGrace:    cfg.SessionGrace,
		BarrierDeadline: cfg.BarrierDeadline,
		Mode:            cfg.Mode,
		SwarmToken:      swarmToken,
		SnapshotEvery:   cfg.SnapshotEvery, // rotates a Persist store only
		Logf:            cfg.Logf,
	})
	if err != nil {
		return nil, err
	}
	defer svc.close()

	// Per-player client options: the service's other client addresses as
	// dial fallbacks and, with fault injection, a dialer carrying the
	// player's own deterministic fault stream (label = player id), so the
	// chaos schedule is reproducible from Fault.Seed alone. One injector
	// shared across players would serialize ordinal counting on a mutex
	// but still be deterministic per label; per-player injectors make the
	// independence explicit.
	playerOptions := func(label int) (client.Options, error) {
		opt := cfg.Client
		opt.Fallbacks = append(append([]string(nil), opt.Fallbacks...), svc.addrs[1:]...)
		if cfg.Chaos.Fault != nil {
			inj, err := faultnet.New(*cfg.Chaos.Fault)
			if err != nil {
				return opt, err
			}
			opt.Dialer = inj.Dialer(uint64(label), opt.Dialer)
		}
		return opt, nil
	}

	var byzWG sync.WaitGroup
	for b := 0; b < cfg.Byzantine; b++ {
		player := cfg.Honest + b
		opt, err := playerOptions(player)
		if err != nil {
			return nil, err
		}
		byzWG.Add(1)
		go func(player int, opt client.Options) {
			defer byzWG.Done()
			_ = runByzantineSpam(ctx, svc.addrs[0], player, tokens[player], opt)
		}(player, opt)
	}

	results, honestErr := honestFleet(ctx, &cfg, svc.addrs[0], tokens, swarmToken, playerOptions)
	byzWG.Wait()
	kills, err := svc.stop()
	if err != nil {
		return nil, err
	}
	if honestErr != nil {
		return nil, honestErr
	}
	final, err := svc.final()
	if err != nil {
		return nil, err
	}
	out := summarize(results, final)
	if cfg.Topology.Replicas > 1 {
		out.Failovers = kills
	} else {
		out.Restarts = kills
	}
	return out, nil
}

// service is the billboard service a cluster run drives: one coordinator
// or a replica group. The topologies differ only in how they start, what
// their chaos hook kills, and the replica group's dial fallbacks.
type service struct {
	addrs []string // client addresses: players dial addrs[0], then fall back to the rest
	// stop ends the chaos hook and returns the kills it made, or the
	// restart it could not complete.
	stop func() (kills int, err error)
	// final returns the server whose committed state the run reports.
	final func() (*server.Server, error)
	close func()
}

// watch runs a chaos hook in its own goroutine until the hook returns or
// the returned stop is called, which closes the hook's quit channel and
// waits for the hook to exit.
func watch(hook func(quit <-chan struct{})) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		hook(quit)
	}()
	return func() {
		close(quit)
		<-done
	}
}

// startCoordinator starts a single coordinator on a loopback port, with
// the KillAtRound restart hook when the chaos schedule asks for it.
func startCoordinator(cfg *ClusterConfig, sc server.Config) (*service, error) {
	if cfg.Chaos.KillLeaderAtRound > 0 {
		return nil, fmt.Errorf("dist: KillLeaderAtRound requires Topology.Replicas > 1")
	}
	if cfg.Chaos.KillAtRound > 0 && cfg.PersistDir == "" {
		return nil, fmt.Errorf("dist: KillAtRound requires PersistDir")
	}
	// newServer builds one server generation; with a PersistDir each
	// generation recovers from (and journals into) the same store, which is
	// what makes kill/restart cycles transparent to the players.
	newServer := func() (*server.Server, *journal.Store, error) {
		sc := sc
		if cfg.PersistDir != "" {
			st, err := journal.OpenStore(cfg.PersistDir)
			if err != nil {
				return nil, nil, err
			}
			sc.Persist = st
		}
		srv, err := server.New(sc)
		if err != nil {
			if sc.Persist != nil {
				sc.Persist.Close()
			}
			return nil, nil, err
		}
		return srv, sc.Persist, nil
	}
	srv, store, err := newServer()
	if err != nil {
		return nil, err
	}
	// srvMu guards the live server generation: the hook swaps it at a
	// restart; teardown and final stats always address the newest one.
	var srvMu sync.Mutex
	current := func() (*server.Server, *journal.Store) {
		srvMu.Lock()
		defer srvMu.Unlock()
		return srv, store
	}
	closeCurrent := func() {
		cs, cst := current()
		cs.Close()
		if cst != nil {
			cst.Close()
		}
	}
	addr, err := srv.Start("")
	if err != nil {
		closeCurrent()
		return nil, err
	}

	// KillAtRound hook: the kill lands inside the open round, once the
	// round KillAtRound or a later one has journaled a post it has not
	// committed, which the first generation's journal shows as it is
	// written (killInRound). Rounds here last a few milliseconds, and their
	// posts stay uncommitted for tens of microseconds of them, so no
	// clock-based kill finds them. The server is then torn down with every
	// connection in flight (the in-process stand-in for kill -9: no goodbye,
	// no extra journal state beyond what the WAL already holds) and a fresh
	// generation recovers from the persist dir onto the same address,
	// rolling the open round back.
	restarts := 0
	var restartErr error
	stop := func() {}
	if cfg.Chaos.KillAtRound > 0 {
		kill := make(chan struct{}, 1)
		store.SetMirror(killInRound(srv.Round(), cfg.Chaos.KillAtRound, kill))
		stop = watch(func(quit <-chan struct{}) {
			select {
			case <-quit:
				return
			case <-kill:
			}
			closeCurrent()
			nsrv, nst, err := newServer()
			if err == nil {
				var ln net.Listener
				// The freed port can linger briefly; Go listeners set
				// SO_REUSEADDR, so a short retry loop suffices.
				for i := 0; i < 400; i++ {
					ln, err = net.Listen("tcp", addr)
					if err == nil {
						break
					}
					time.Sleep(5 * time.Millisecond)
				}
				if err == nil {
					nsrv.Serve(ln)
					srvMu.Lock()
					srv, store = nsrv, nst
					srvMu.Unlock()
					restarts++
					return
				}
				nsrv.Close()
				if nst != nil {
					nst.Close()
				}
			}
			restartErr = fmt.Errorf("dist: server restart: %w", err)
		})
	}
	return &service{
		addrs: []string{addr},
		stop: func() (int, error) {
			stop()
			return restarts, restartErr
		},
		final: func() (*server.Server, error) {
			final, _ := current()
			return final, nil
		},
		close: closeCurrent,
	}, nil
}

// killInRound returns a journal mirror for a server at round round: it
// reads each write's records as the store appends them, counts round
// markers, and signals kill (without blocking) at every post record
// written while the open round is target or later — a post of the open
// round, journaled but not committed.
func killInRound(round, target int, kill chan<- struct{}) func(p []byte) {
	return func(p []byte) {
		// A write holds whole frames the server just encoded, so the replay
		// cannot fail on them, and a mirror has no caller to report to.
		_ = journal.ReplayRecords(bytes.NewReader(p), func(rec journal.Record) error {
			switch rec.Kind {
			case journal.RecordEndRound:
				round++
			case journal.RecordPost:
				if round >= target {
					select {
					case kill <- struct{}{}:
					default:
					}
				}
			}
			return nil
		})
	}
}

// mintTokens derives every player's bearer token and the swarm credential
// from the run seed. Both coordinator topologies mint through it, so a seed
// issues the same credentials whether one server or a replica group serves.
func mintTokens(seed uint64, n int) (tokens []string, swarmToken string) {
	tokenRng := rng.NewPartition(seed).Stream(rng.StreamTokens)
	tokens = make([]string, n)
	for i := range tokens {
		tokens[i] = fmt.Sprintf("tok-%d-%016x", i, tokenRng.Uint64())
	}
	return tokens, fmt.Sprintf("swarm-%016x", tokenRng.Uint64())
}

// summarize aggregates the honest fleet's results with the final
// coordinator's probe ledger and board digest.
func summarize(results []*HonestResult, final *server.Server) *ClusterResult {
	out := &ClusterResult{Honest: results, AllFound: true}
	out.ServerProbes, _, _, _ = final.Stats()
	out.BoardDigest = final.Digest()
	total := 0
	for _, r := range results {
		if !r.Found {
			out.AllFound = false
		}
		if r.Departed {
			out.Departed++
		}
		total += r.Probes
		if r.Rounds > out.Rounds {
			out.Rounds = r.Rounds
		}
	}
	out.MeanProbes = float64(total) / float64(len(results))
	return out
}

// swarmFleet drives the whole honest fleet through one swarm event-loop
// driver over a few pipelined connections. The swarm transport gets the
// fault dialer under label n (one past the last player id), so its chaos
// schedule is disjoint from every Byzantine player's stream.
func swarmFleet(ctx context.Context, cfg *ClusterConfig, addr string, _ []string, swarmToken string,
	playerOptions func(label int) (client.Options, error)) ([]*HonestResult, error) {
	opt, err := playerOptions(cfg.Honest + cfg.Byzantine)
	if err != nil {
		return nil, err
	}
	res, err := swarm.Run(ctx, swarm.Config{
		Addr:      addr,
		Fallbacks: opt.Fallbacks,
		From:      0,
		To:        cfg.Honest,
		Token:     swarmToken,
		Params:    cfg.Params,
		Seed:      cfg.Seed,
		MaxRounds: cfg.MaxRounds,
		Groups:    cfg.Drive.SwarmGroups,
		Dynamics:  cfg.Drive.Dynamics,
		Client:    opt,
		Metrics:   opt.Metrics,
		Logf:      cfg.Logf,
	})
	if err != nil {
		return nil, err
	}
	results := make([]*HonestResult, len(res.Players))
	for i := range res.Players {
		results[i] = &res.Players[i]
	}
	return results, nil
}
