package repro

import (
	"context"
	"net"
	"time"

	"repro/internal/scenario"
)

// This file is the unified functional-option layer. Every run entry point
// takes its own option interface — RunOption, ClusterOption, SwarmOption,
// DialOption, ScenarioOption — and a constructor whose knob exists on
// several of them returns a value implementing each of those interfaces, so
// the same repro.WithMetrics(reg) call works on Dial, RunSwarm,
// RunDistributedCluster, and RunScenario alike:
//
//	c, err := repro.Dial(ctx, addr, player, token, repro.WithMetrics(reg))
//	sres, err := repro.RunSwarm(ctx, cfg, repro.WithMetrics(reg))
//
// The interfaces are closed (their methods are unexported): options come
// from this package's With* constructors, and passing an option to an entry
// point it does not apply to is a compile error, not a silent no-op.

// RunOption customizes one Run call beyond what SearchConfig describes —
// hooks that take live values (observers, contexts) rather than plain
// parameters.
type RunOption interface{ applyRun(*EngineConfig) }

// ClusterOption customizes one RunDistributedCluster call on top of the
// ClusterConfig value. Options apply in order.
type ClusterOption interface{ applyCluster(*ClusterConfig) }

// SwarmOption customizes one RunSwarm call. Options apply in order over
// the config; unset knobs keep the documented defaults.
type SwarmOption interface{ applySwarm(*SwarmConfig) }

// DialOption customizes one Dial call. Options apply in order over the
// zero ClientOptions value; unset knobs keep the documented defaults.
type DialOption interface{ applyDial(*ClientOptions) }

// ScenarioOption customizes one RunScenario call: the seed and the
// operational hooks a Scenario deliberately does not encode.
type ScenarioOption interface{ applyScenario(*scenario.Options) }

// Per-family function adapters for single-purpose options.
type (
	runOptionFunc      func(*EngineConfig)
	clusterOptionFunc  func(*ClusterConfig)
	swarmOptionFunc    func(*SwarmConfig)
	dialOptionFunc     func(*ClientOptions)
	scenarioOptionFunc func(*scenario.Options)
)

func (f runOptionFunc) applyRun(c *EngineConfig)               { f(c) }
func (f clusterOptionFunc) applyCluster(c *ClusterConfig)      { f(c) }
func (f swarmOptionFunc) applySwarm(c *SwarmConfig)            { f(c) }
func (f dialOptionFunc) applyDial(o *ClientOptions)            { f(o) }
func (f scenarioOptionFunc) applyScenario(o *scenario.Options) { f(o) }

// ---------------------------------------------------------------------------
// Shared options: one constructor, every entry point that has the knob.
// The exported *Option interface names how far each constructor reaches.

// ObserverOption is a WithObserver value: valid on Run, RunSwarm, and
// RunScenario.
type ObserverOption interface {
	RunOption
	SwarmOption
	ScenarioOption
}

type observerOption struct{ o Observer }

func (v observerOption) applyRun(c *EngineConfig)          { c.Observer = v.o }
func (v observerOption) applySwarm(c *SwarmConfig)         { c.Observer = v.o }
func (v observerOption) applyScenario(o *scenario.Options) { o.Observer = v.o }

// WithObserver attaches an Observer: it receives a RoundStats snapshot
// after every committed round. Combine sinks with MultiObserver; observers
// never perturb the run (same seeds, same probes, same digests). Applies
// to Run, RunSwarm, and RunScenario.
func WithObserver(o Observer) ObserverOption { return observerOption{o} }

// MetricsOption is a WithMetrics value: valid on Dial, RunSwarm,
// RunDistributedCluster, and RunScenario.
type MetricsOption interface {
	DialOption
	SwarmOption
	ClusterOption
	ScenarioOption
}

type metricsOption struct{ reg *Metrics }

func (v metricsOption) applyDial(o *ClientOptions)        { o.Metrics = v.reg }
func (v metricsOption) applySwarm(c *SwarmConfig)         { c.Metrics = v.reg }
func (v metricsOption) applyCluster(c *ClusterConfig)     { c.Client.Metrics = v.reg }
func (v metricsOption) applyScenario(o *scenario.Options) { o.Metrics = v.reg }

// WithMetrics records the run's metric families into reg: client_* on Dial
// (dials, reconnects, retries, backoff time, frames/bytes), swarm_* on
// RunSwarm (scheduler depth, round and barrier latency, transport health),
// and the honest fleet's family on RunDistributedCluster and on
// cluster-backed RunScenario — client_* for the goroutine-per-player
// fleet, swarm_* when the swarm driver runs it (Drive.Swarm, and always
// for scenarios). Share one registry across a fleet to aggregate.
func WithMetrics(reg *Metrics) MetricsOption { return metricsOption{reg} }

// LogfOption is a WithLogf value: valid on RunSwarm,
// RunDistributedCluster, and RunScenario.
type LogfOption interface {
	SwarmOption
	ClusterOption
	ScenarioOption
}

type logfOption struct {
	logf func(format string, args ...any)
}

func (v logfOption) applySwarm(c *SwarmConfig)         { c.Logf = v.logf }
func (v logfOption) applyCluster(c *ClusterConfig)     { c.Logf = v.logf }
func (v logfOption) applyScenario(o *scenario.Options) { o.Logf = v.logf }

// WithLogf directs per-round progress lines to logf. Applies to RunSwarm,
// RunDistributedCluster, and RunScenario.
func WithLogf(logf func(format string, args ...any)) LogfOption { return logfOption{logf} }

// TransportOption is a WithClientOptions value: valid on Dial, RunSwarm,
// and RunDistributedCluster.
type TransportOption interface {
	DialOption
	SwarmOption
	ClusterOption
}

type clientOptionsOption struct{ opt ClientOptions }

func (v clientOptionsOption) applyDial(o *ClientOptions)    { *o = v.opt }
func (v clientOptionsOption) applySwarm(c *SwarmConfig)     { c.Client = v.opt }
func (v clientOptionsOption) applyCluster(c *ClusterConfig) { c.Client = v.opt }

// WithClientOptions sets the whole transport option struct (dialer,
// retries, backoff, timeouts) — the escape hatch for callers that already
// hold a ClientOptions value, and the hook fault injection plugs into for
// swarm and cluster runs. On Dial it replaces the accumulated struct;
// later options still apply on top.
func WithClientOptions(opt ClientOptions) TransportOption { return clientOptionsOption{opt} }

// ---------------------------------------------------------------------------
// Run-only options.

// WithContext lets ctx cancel the run: the engine checks it at every round
// boundary and stops with its error once it is done. Cancellation is
// cooperative and round-aligned — a canceled run never tears a round in
// half, and a run that completes first is unaffected.
func WithContext(ctx context.Context) RunOption {
	return runOptionFunc(func(ec *EngineConfig) { ec.Context = ctx })
}

// ---------------------------------------------------------------------------
// Cluster-only options.

// WithMode selects the cluster's operation mode, which decides what an
// expired round deadline (ClusterConfig.BarrierDeadline) does to the
// players that have not arrived: ModeSync (the default) force-Dones them,
// ModeEpoch seals the round without them.
func WithMode(m ServerMode) ClusterOption {
	return clusterOptionFunc(func(c *ClusterConfig) { c.Mode = m })
}

// ---------------------------------------------------------------------------
// Swarm-only options (connection-group layout).

// WithSwarmGroups sets the number of connection groups; each group owns a
// contiguous sub-block of players and its own pipelined connection
// (default 4, clamped to the player count).
func WithSwarmGroups(n int) SwarmOption {
	return swarmOptionFunc(func(c *SwarmConfig) { c.Groups = n })
}

// WithSwarmChunk caps probes/posts/dones per frame (default 4096).
func WithSwarmChunk(n int) SwarmOption {
	return swarmOptionFunc(func(c *SwarmConfig) { c.Chunk = n })
}

// WithSwarmWindow caps pipelined in-flight frames per connection
// (default 8).
func WithSwarmWindow(n int) SwarmOption {
	return swarmOptionFunc(func(c *SwarmConfig) { c.Window = n })
}

// WithSwarmFallbacks appends fallback addresses — the rest of a replicated
// coordinator group's client ring. Not-leader redirects steer every swarm
// connection to whichever member leads.
func WithSwarmFallbacks(addrs ...string) SwarmOption {
	return swarmOptionFunc(func(c *SwarmConfig) { c.Fallbacks = append(c.Fallbacks, addrs...) })
}

// ---------------------------------------------------------------------------
// Dial-only options (per-client transport knobs).

// WithRetries sets how many times a failed call is retried (reconnecting
// and resuming the session first) before the error is reported. Negative
// disables retries.
func WithRetries(n int) DialOption {
	return dialOptionFunc(func(o *ClientOptions) { o.Retries = n })
}

// WithBackoff shapes the jittered exponential backoff between retries.
func WithBackoff(base, max time.Duration) DialOption {
	return dialOptionFunc(func(o *ClientOptions) { o.BackoffBase, o.BackoffMax = base, max })
}

// WithCallTimeout bounds one attempt of every call but an arrival. Negative
// disables the deadline.
func WithCallTimeout(d time.Duration) DialOption {
	return dialOptionFunc(func(o *ClientOptions) { o.CallTimeout = d })
}

// WithBarrierTimeout bounds one attempt of every arrival — Barrier, and
// PostBatch ending the round (default: no deadline — an arrival blocks
// legitimately while other players finish).
func WithBarrierTimeout(d time.Duration) DialOption {
	return dialOptionFunc(func(o *ClientOptions) { o.BarrierTimeout = d })
}

// WithDialer overrides the transport dial — the hook fault injection
// (NewFaultInjector) plugs into for single-client dials.
func WithDialer(dial func(addr string) (net.Conn, error)) DialOption {
	return dialOptionFunc(func(o *ClientOptions) { o.Dialer = dial })
}

// WithClientSeed seeds the backoff jitter (default: derived from the
// player id).
func WithClientSeed(seed uint64) DialOption {
	return dialOptionFunc(func(o *ClientOptions) { o.Seed = seed })
}

// ---------------------------------------------------------------------------
// Scenario-only options.

// WithSeed sets the scenario run seed. A scenario file names a workload;
// (file, seed) names a run — replaying the same pair reproduces the
// committed billboard digest byte for byte. The zero seed is a valid,
// deterministic run of its own.
func WithSeed(seed uint64) ScenarioOption {
	return scenarioOptionFunc(func(o *scenario.Options) { o.Seed = seed })
}
