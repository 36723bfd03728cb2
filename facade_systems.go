package repro

import (
	"repro/internal/async"
	"repro/internal/client"
	"repro/internal/dist"
	"repro/internal/faultnet"
	"repro/internal/journal"
	"repro/internal/server"
	"repro/internal/trust"
)

// This file re-exports the substrate systems — the asynchronous model of
// [1], the networked billboard service, the durable persist store, and the
// EigenTrust-style trust computation — so that downstream users of the
// module can reach them through the supported public API. It is organized
// in sections:
//
//   - Asynchronous model: the prior-work model the paper argues against.
//   - Networked billboard service: server, client, distributed runs.
//   - Fault injection: deterministic transport chaos for tests.
//   - Durability: the persist store behind a restartable billboard service.
//   - Trust: the EigenTrust-style reputation comparison (X5).
//
// The preferred client entry point is Dial (dial.go) with functional
// options; the observability layer (metrics, traces, observers) lives in
// observability.go.

// ---------------------------------------------------------------------------
// Asynchronous model (§1.2; the model of the authors' prior work [1]).
type (
	// AsyncConfig describes one asynchronous run.
	AsyncConfig = async.Config
	// AsyncResult reports per-player probe counts and completion.
	AsyncResult = async.Result
	// AsyncStrategy is a per-step policy in the asynchronous model.
	AsyncStrategy = async.Strategy
	// AsyncSchedule decides which player steps next (adversary-controlled).
	AsyncSchedule = async.Schedule
)

// RunAsync executes one asynchronous-model simulation.
func RunAsync(cfg AsyncConfig) (*AsyncResult, error) { return async.Run(cfg) }

// NewExploreFollow returns the algorithm of [1]: explore or follow a random
// vote, with equal probability.
func NewExploreFollow(n, m int) AsyncStrategy { return async.NewExploreFollow(n, m) }

// NewSoloStrategy returns the billboard-oblivious asynchronous strategy.
func NewSoloStrategy(m int) AsyncStrategy { return async.NewSolo(m) }

// Asynchronous schedules.
var (
	// ScheduleRoundRobin cycles fairly through active players.
	ScheduleRoundRobin AsyncSchedule = async.RoundRobin{}
	// ScheduleUniformRandom picks a uniformly random active player.
	ScheduleUniformRandom AsyncSchedule = async.UniformRandom{}
)

// ScheduleStarve runs the given victim exclusively until it halts — the
// §1.2 schedule that forces Θ(1/β) individual cost.
func ScheduleStarve(victim int) AsyncSchedule { return async.Starve{Victim: victim} }

// ---------------------------------------------------------------------------
// Networked billboard service.

type (
	// BillboardServerConfig configures the billboard service.
	BillboardServerConfig = server.Config
	// BillboardServer is a running billboard service.
	BillboardServer = server.Server
	// BillboardClient is one player's authenticated connection.
	BillboardClient = client.Client
	// BatchPost is one entry of BillboardClient.PostBatch — a whole round's
	// posts plus the player's arrival in a single protocol-v3 frame.
	BatchPost = client.BatchPost
	// CachedReader is a per-round read cache over a BillboardClient.
	CachedReader = client.Cached
)

// NewBillboardServer builds a billboard service (call Start to listen).
func NewBillboardServer(cfg BillboardServerConfig) (*BillboardServer, error) {
	return server.New(cfg)
}

// ServerMode selects what a round's deadline does to players that have not
// arrived (BillboardServerConfig.Mode / ClusterConfig.Mode). Pacing is the
// same in both modes: a round commits once every active player has
// arrived past it.
type ServerMode = server.Mode

const (
	// ModeSync is the classic synchronous operation: an expired deadline
	// force-Dones the stragglers.
	ModeSync ServerMode = server.ModeSync
	// ModeEpoch runs timestamped epochs: an expired deadline seals the
	// round without the stragglers, whose late posts bind to the next one.
	// While no deadline fires, an epoch run commits the sync run's
	// billboard byte for byte.
	ModeEpoch ServerMode = server.ModeEpoch
)

// ClientOptions tunes a billboard client's fault tolerance: reconnect
// retries, backoff, per-call deadlines, the transport dialer, and the
// metrics registry. Usually built implicitly via Dial's options.
type ClientOptions = client.Options

// NewCachedReader wraps a client with a per-round read cache; call
// Invalidate after each Barrier.
func NewCachedReader(c *BillboardClient) *CachedReader { return client.NewCached(c) }

// Distributed runs.
type (
	// ClusterConfig describes a full distributed run on localhost: world
	// and fleet sizes flat, the service shape under Topology, the fault
	// machinery under Chaos, and the fleet's swarm layout and dynamics
	// under Drive.
	ClusterConfig = dist.ClusterConfig
	// ClusterTopology shapes the service (the coordinator replica group).
	ClusterTopology = dist.Topology
	// ClusterChaos schedules fault injection and kill/restart hooks.
	ClusterChaos = dist.Chaos
	// ClusterDrive tunes the swarm scheduler that drives the honest fleet
	// (connection groups, frame size, pipelining window) and carries the
	// open-world Dynamics hook; the zero value takes the swarm defaults.
	ClusterDrive = dist.Drive
	// ClusterResult aggregates a distributed run.
	ClusterResult = dist.ClusterResult
)

// RunDistributedCluster starts a billboard server, drives the honest
// players through the swarm scheduler over a few pipelined connections,
// and runs every Byzantine player as its own TCP client. ClusterOption and
// its constructors (WithMode, WithMetrics, WithLogf, WithClientOptions)
// live in options.go with the rest of the unified option layer.
func RunDistributedCluster(cfg ClusterConfig, opts ...ClusterOption) (*ClusterResult, error) {
	for _, opt := range opts {
		opt.applyCluster(&cfg)
	}
	return dist.RunCluster(cfg)
}

// ---------------------------------------------------------------------------
// Deterministic transport fault injection (chaos testing).

type (
	// FaultConfig sets seed-derived per-operation fault probabilities
	// (drops, delays, torn writes, one-way partitions).
	FaultConfig = faultnet.Config
	// FaultInjector wraps dialers and listeners with fault injection.
	FaultInjector = faultnet.Injector
)

// NewFaultInjector validates cfg and builds a fault injector; plug its
// Dialer into ClientOptions.Dialer or ClusterConfig.Chaos.Fault for chaos runs.
func NewFaultInjector(cfg FaultConfig) (*FaultInjector, error) {
	return faultnet.New(cfg)
}

// ---------------------------------------------------------------------------
// Durability: the billboard service's persist store.

// JournalStore is a persistence directory holding one full-service
// snapshot plus the write-ahead journal written after it. Set it as
// BillboardServerConfig.Persist: the server recovers the board, round,
// membership, probe ledger, and session dedup windows from it, then
// journals every state change into it, so a probe is billed exactly once
// across restarts. Close it after the server.
type JournalStore = journal.Store

// OpenJournalStore opens (creating if needed) a persist store in dir. The
// journal fsyncs at every round commit: a machine crash loses at most the
// uncommitted round, which the synchrony contract discards anyway.
func OpenJournalStore(dir string) (*JournalStore, error) {
	return journal.OpenStore(dir, journal.SyncCommit)
}

// ---------------------------------------------------------------------------
// EigenTrust-style reputation (the §1.3 critique, experiment X5).

type (
	// TrustReport is one (player, object, value) rating.
	TrustReport = trust.Report
	// TrustConfig tunes the trust computation.
	TrustConfig = trust.Config
)

// TrustScores computes agreement-popularity global trust per player.
func TrustScores(reports []TrustReport, cfg TrustConfig) ([]float64, error) {
	return trust.Scores(reports, cfg)
}

// TrustRecommend ranks objects by trust-weighted positive ratings.
func TrustRecommend(reports []TrustReport, scores []float64, threshold float64) (object int, score float64, ok bool) {
	return trust.Recommend(reports, scores, threshold)
}
