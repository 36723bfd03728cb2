// Package dist orchestrates fully distributed runs: a billboard server plus
// one TCP client per player, honest players driving their own core.Distill
// instances (per-player, not the engine's shared-instance optimization) and
// Byzantine players lying over the same wire protocol. This is the
// deployment shape the paper describes — independent parties and a shared
// billboard service — and doubles as an end-to-end proof that the protocol
// code is engine-independent.
//
// A cluster can also run through deterministic fault injection
// (ClusterConfig.Chaos.Fault → internal/faultnet): connections drop, stall, and
// tear mid-frame, while session resume and request dedup keep the search
// semantics identical — the chaos tests assert the final billboard digest
// matches the fault-free run on the same seed, with zero double-charged
// probes.
package dist

import (
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
type HonestResult struct {
	Player   int
	Probes   int
	Rounds   int // round at which the player halted (or MaxRounds)
	Found    bool
	TimedOut bool
	Departed bool // left via Drive.Dynamics before finding an object
}

// RunHonestPlayer connects to the billboard server at addr and runs DISTILL
// for one player until it probes a good object (local testing) or maxRounds
// elapse. The player's randomness derives from seed alone.
func RunHonestPlayer(addr string, player int, token string, params core.Params, seed uint64, maxRounds int) (*HonestResult, error) {
	return runHonestPlayer(addr, player, token, params, seed, maxRounds, client.Options{})
}

func runHonestPlayer(addr string, player int, token string, params core.Params, seed uint64, maxRounds int, opt client.Options) (*HonestResult, error) {
	c, err := client.DialOptions(addr, player, token, opt)
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
		Board:    cached, // per-round read cache over the RPC reader
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

// RunByzantineSpam connects as a dishonest player that probes one bad
// object, lies that it is good, and sends Done once the round holding the
// lie has committed. Its footprint is that one round whatever the timing,
// so a run's round count is paced by the honest players alone.
func RunByzantineSpam(addr string, player int, token string) error {
	return runByzantineSpam(addr, player, token, client.Options{})
}

func runByzantineSpam(addr string, player int, token string, opt client.Options) error {
	c, err := client.DialOptions(addr, player, token, opt)
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
	if target >= 0 {
		if err := c.Post(target, 1, true); err != nil {
			return err
		}
	}
	if _, err := c.Barrier(); err != nil {
		// Server closed or we were kicked: either way we are finished.
		return nil
	}
	return c.Done()
}

// Topology shapes the billboard service the players run against: the
// object-id shard partition and the coordinator replica group.
type Topology struct {
	// Shards partitions the billboard by object id into this many
	// independent shard lanes (see server.Config.Shards); clients batch and
	// pipeline their posts per shard automatically. 0 or 1 is the classic
	// single-board server.
	Shards int
	// Replicas, when > 1, runs the coordinator as a replica group of this
	// size (odd, >= 3; see server.StartReplica) instead of a single server:
	// the leader quorum-commits every round into the group before clients
	// observe it, and a follower takes over if the leader dies. Requires
	// PersistDir (each member journals under its own subdirectory). 0 or 1
	// is the classic single coordinator — same code path, byte-identical
	// behavior.
	Replicas int
	// ReplicaQuorum overrides the commit quorum (default: majority).
	ReplicaQuorum int
}

// Chaos schedules a run's fault machinery: deterministic transport fault
// injection and the kill/restart hooks. The zero value is a fault-free run.
type Chaos struct {
	// Fault, when non-nil, injects deterministic transport faults (drops,
	// delays, torn writes, partitions) into every client connection via
	// internal/faultnet. Pair it with a SessionGrace so dropped players can
	// resume, and Client retry knobs sized for the injection rate.
	Fault *faultnet.Config
	// KillAtRound, when > 0, kills the server the moment its round counter
	// reaches this value — mid-round, with clients in flight — and restarts
	// it from PersistDir on the same address. The crash-recovery chaos
	// hook: honest players must ride through it on session resume alone.
	KillAtRound int
	// KillShardAtRound, when > 0, kills one shard lane (index 1) the moment
	// the round counter reaches this value and restarts it from its
	// per-shard store shortly after — the partial-failure chaos hook: posts
	// and reads for that shard's objects stall and resume, every other
	// shard keeps serving. Requires Topology.Shards > 1 and PersistDir;
	// mutually exclusive with KillAtRound (a whole-server restart would
	// race the shard bounce).
	KillShardAtRound int
	// KillLeaderAtRound, when > 0, crash-stops the replica-group leader the
	// moment its committed round counter reaches this value — mid-round,
	// with clients in flight. The failover chaos hook: the survivors elect
	// a new leader which replays the quorum-committed prefix, discards the
	// uncommitted tail, and serves the retried requests. Requires
	// Topology.Replicas > 1; composable with KillShardAtRound in the same
	// round.
	KillLeaderAtRound int
}

// Drive selects how the honest fleet is driven against the service. The
// zero value is the classic goroutine-and-connection per player.
type Drive struct {
	// Swarm drives every honest player through one event-loop scheduler
	// (internal/swarm) multiplexed onto a few pipelined connections instead
	// of a goroutine and TCP connection per player. The swarm path is
	// digest-identical to the per-player path — same player streams, same
	// per-round probe/post/barrier ordering, same halt rule — while scaling
	// to player counts no goroutine fleet can reach.
	Swarm bool
	// SwarmGroups, SwarmChunk, and SwarmWindow forward to swarm.Config
	// (connection groups, frame batch size, pipelining window); zero takes
	// the swarm defaults (4, 4096, 8).
	SwarmGroups int
	SwarmChunk  int
	SwarmWindow int
	// Dynamics, when non-nil, opens the world: honest arrivals and
	// departures flow through the hook at round boundaries (see
	// sim.Dynamics and swarm.Config.Dynamics). Requires Swarm — the
	// goroutine-per-player fleet has no round-aligned point to inject
	// membership changes deterministically, the event-loop driver does.
	Dynamics sim.Dynamics
}

// ClusterConfig describes a full distributed run on localhost: the world
// and fleet sizes flat, the service shape under Topology, the fault
// machinery under Chaos, and the fleet driver under Drive.
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

	// Topology shapes the service (shards, replica group).
	Topology Topology
	// Chaos schedules fault injection and kill/restart hooks.
	Chaos Chaos
	// Drive selects the honest-fleet driver (per-player goroutines or the
	// swarm scheduler).
	Drive Drive

	// Client tunes every player's retry/backoff/deadline behavior.
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
	// ShardRestarts counts shard lane kill/restart cycles performed
	// (KillShardAtRound).
	ShardRestarts int
	// Failovers counts leaders crash-stopped by KillLeaderAtRound; each one
	// forced a quorum takeover by a surviving replica.
	Failovers int
}

// RunCluster starts a billboard server on a loopback port, runs all players
// as concurrent TCP clients, and tears everything down.
func RunCluster(cfg ClusterConfig) (*ClusterResult, error) {
	if cfg.Universe == nil {
		return nil, fmt.Errorf("dist: Universe is required")
	}
	if cfg.Honest < 1 {
		return nil, fmt.Errorf("dist: need at least one honest player")
	}
	if cfg.Drive.Dynamics != nil && !cfg.Drive.Swarm {
		return nil, fmt.Errorf("dist: Drive.Dynamics requires Drive.Swarm")
	}
	if cfg.Topology.Replicas > 1 {
		return runReplicated(cfg)
	}
	if cfg.Chaos.KillLeaderAtRound > 0 {
		return nil, fmt.Errorf("dist: KillLeaderAtRound requires Topology.Replicas > 1")
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = 4096
	}
	n := cfg.Honest + cfg.Byzantine
	tokens, swarmToken := mintTokens(cfg.Seed, n)
	if cfg.Chaos.KillAtRound > 0 && cfg.PersistDir == "" {
		return nil, fmt.Errorf("dist: KillAtRound requires PersistDir")
	}
	if cfg.Chaos.KillShardAtRound > 0 {
		if cfg.Topology.Shards < 2 {
			return nil, fmt.Errorf("dist: KillShardAtRound requires Topology.Shards > 1")
		}
		if cfg.PersistDir == "" {
			return nil, fmt.Errorf("dist: KillShardAtRound requires PersistDir")
		}
		if cfg.Chaos.KillAtRound > 0 {
			return nil, fmt.Errorf("dist: KillShardAtRound and KillAtRound are mutually exclusive")
		}
	}
	// newServer builds one server generation; with a PersistDir each
	// generation recovers from (and journals into) the same store, which is
	// what makes kill/restart cycles transparent to the players.
	newServer := func() (*server.Server, *journal.Store, error) {
		sc := server.Config{
			Universe:        cfg.Universe,
			Tokens:          tokens,
			Alpha:           float64(cfg.Honest) / float64(n),
			Beta:            cfg.Universe.Beta(),
			SessionGrace:    cfg.SessionGrace,
			BarrierDeadline: cfg.BarrierDeadline,
			Mode:            cfg.Mode,
			Shards:          cfg.Topology.Shards,
			SwarmToken:      swarmToken,
			Logf:            cfg.Logf,
		}
		if cfg.PersistDir != "" {
			st, err := journal.OpenStore(cfg.PersistDir, journal.SyncCommit)
			if err != nil {
				return nil, nil, err
			}
			sc.Persist = st
			sc.SnapshotEvery = cfg.SnapshotEvery
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
	// current guards the live server generation: the watcher swaps it at a
	// restart; teardown and final stats always address the newest one.
	var srvMu sync.Mutex
	closeCurrent := func() {
		srvMu.Lock()
		cs, cst := srv, store
		srvMu.Unlock()
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
	defer closeCurrent()

	// KillAtRound watcher: the moment the round counter reaches the target,
	// the server is torn down with every connection in flight (the
	// in-process stand-in for kill -9: no goodbye, no extra journal state
	// beyond what the WAL already holds) and a fresh generation recovers
	// from the persist dir onto the same address.
	restarts := 0
	var restartErr error
	watcherStop := make(chan struct{})
	watcherDone := make(chan struct{})
	if cfg.Chaos.KillAtRound > 0 {
		go func() {
			defer close(watcherDone)
			for {
				select {
				case <-watcherStop:
					return
				case <-time.After(2 * time.Millisecond):
				}
				srvMu.Lock()
				cs := srv
				srvMu.Unlock()
				if cs.Round() < cfg.Chaos.KillAtRound {
					continue
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
				return
			}
		}()
	} else {
		close(watcherDone)
	}

	// KillShardAtRound watcher: one shard lane is torn down mid-run — its
	// board, pending posts, and lane sessions dropped, its store closed —
	// and rebuilt from its per-shard journal while every other shard keeps
	// serving. Lane traffic for the dead shard stalls (dropped connections,
	// client retries) and resumes transparently after the restart.
	shardRestarts := 0
	var shardErr error
	shardStop := make(chan struct{})
	shardDone := make(chan struct{})
	if cfg.Chaos.KillShardAtRound > 0 {
		go func() {
			defer close(shardDone)
			const victim = 1
			for {
				select {
				case <-shardStop:
					return
				case <-time.After(2 * time.Millisecond):
				}
				if srv.Round() < cfg.Chaos.KillShardAtRound {
					continue
				}
				if err := srv.KillShard(victim); err != nil {
					shardErr = fmt.Errorf("dist: kill shard: %w", err)
					return
				}
				time.Sleep(10 * time.Millisecond)
				if err := srv.RestartShard(victim); err != nil {
					shardErr = fmt.Errorf("dist: restart shard: %w", err)
					return
				}
				shardRestarts++
				return
			}
		}()
	} else {
		close(shardDone)
	}

	// Per-player client options; with fault injection each player's dialer
	// carries its own deterministic fault stream (label = player id), so
	// the chaos schedule is reproducible from Fault.Seed alone.
	playerOptions := func(player int) (client.Options, error) {
		opt := cfg.Client
		if cfg.Chaos.Fault != nil {
			inj, err := faultnet.New(*cfg.Chaos.Fault)
			if err != nil {
				return opt, err
			}
			opt.Dialer = inj.Dialer(uint64(player), opt.Dialer)
		}
		return opt, nil
	}
	// One injector shared across players would serialize ordinal counting
	// on a mutex but still be deterministic per label; per-player injectors
	// make the independence explicit.

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
			_ = runByzantineSpam(addr, player, tokens[player], opt)
		}(player, opt)
	}

	results, honestErr := runHonestFleet(&cfg, addr, tokens, swarmToken, playerOptions)
	byzWG.Wait()
	close(watcherStop)
	<-watcherDone
	close(shardStop)
	<-shardDone
	if restartErr != nil {
		return nil, restartErr
	}
	if shardErr != nil {
		return nil, shardErr
	}
	if honestErr != nil {
		return nil, honestErr
	}
	srvMu.Lock()
	final := srv
	srvMu.Unlock()
	out := summarize(results, final)
	out.Restarts, out.ShardRestarts = restarts, shardRestarts
	return out, nil
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

// runHonestFleet drives every honest player to completion and returns their
// results in player order. The classic path is a goroutine and TCP
// connection per player; with Drive.Swarm set, the whole fleet runs through
// one swarm event-loop driver over a few pipelined connections —
// digest-identical, asserted by the swarm parity tests. The swarm transport
// gets the fault dialer under label n (one past the last player id), so its
// chaos schedule is deterministic and disjoint from every per-player stream.
func runHonestFleet(cfg *ClusterConfig, addr string, tokens []string, swarmToken string,
	playerOptions func(player int) (client.Options, error)) ([]*HonestResult, error) {
	if cfg.Drive.Swarm {
		opt, err := playerOptions(cfg.Honest + cfg.Byzantine)
		if err != nil {
			return nil, err
		}
		res, err := swarm.Run(context.Background(), swarm.Config{
			Addr:      addr,
			Fallbacks: opt.Fallbacks,
			From:      0,
			To:        cfg.Honest,
			Token:     swarmToken,
			Params:    cfg.Params,
			Seed:      cfg.Seed,
			MaxRounds: cfg.MaxRounds,
			Groups:    cfg.Drive.SwarmGroups,
			Chunk:     cfg.Drive.SwarmChunk,
			Window:    cfg.Drive.SwarmWindow,
			Dynamics:  cfg.Drive.Dynamics,
			Client:    opt,
			Metrics:   opt.Metrics,
			Logf:      cfg.Logf,
		})
		if err != nil {
			return nil, err
		}
		results := make([]*HonestResult, cfg.Honest)
		for i := range res.Players {
			pr := &res.Players[i]
			results[i] = &HonestResult{
				Player:   pr.Player,
				Probes:   pr.Probes,
				Rounds:   pr.Rounds,
				Found:    pr.Found,
				TimedOut: pr.TimedOut,
				Departed: pr.Departed,
			}
		}
		return results, nil
	}
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
			results[p], errs[p] = runHonestPlayer(addr, p, tokens[p], cfg.Params, cfg.Seed, cfg.MaxRounds, opt)
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
