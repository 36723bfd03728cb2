package scenario

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/sim"
)

// Options carries the run-time knobs a Spec deliberately does not encode:
// the seed (a scenario file names a workload, (file, seed) names a run)
// and the operational hooks.
type Options struct {
	// Seed determines the entire run.
	Seed uint64
	// Observer, when non-nil, receives per-round snapshots.
	Observer sim.Observer
	// Metrics, when non-nil, receives the runner's metric families
	// (cluster backend).
	Metrics *obs.Registry
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// Result is a completed scenario run.
type Result struct {
	// Name and Backend echo the spec.
	Name    string
	Backend string
	// Seed echoes the run seed.
	Seed uint64
	// Rounds is the number of rounds executed (max over players for the
	// cluster backend, engine round count otherwise).
	Rounds int
	// Honest is the honest player count; Found/Departed/TimedOut partition
	// how they ended.
	Honest   int
	Found    int
	Departed int
	TimedOut int
	// MeanProbes is the mean per-honest-player probe count.
	MeanProbes float64
	// Digest is the canonical digest of the final committed billboard:
	// byte-identical across replays of the same (spec, seed) — the replay
	// contract the golden tests pin.
	Digest []byte

	// Engine holds the engine backend's full result (nil on cluster runs);
	// Cluster holds the cluster backend's (nil on engine runs).
	Engine  *sim.Result
	Cluster *dist.ClusterResult
}

// Run executes a validated Spec. The context cancels engine runs at round
// boundaries and cluster runs through the swarm driver.
func Run(ctx context.Context, spec *Spec, opts Options) (*Result, error) {
	if spec == nil {
		return nil, fmt.Errorf("scenario: nil spec")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	switch spec.Backend {
	case BackendEngine:
		return runEngine(ctx, spec, opts)
	case BackendCluster:
		return runCluster(ctx, spec, opts)
	}
	return nil, fmt.Errorf("scenario: unknown backend %q", spec.Backend)
}

// buildUniverse plants the spec's world from the partition's world stream.
// With World.Zipf set, the good set is re-planted at ids drawn from the
// popularity profile (low ids popular) before anyone probes.
func buildUniverse(spec *Spec, part *rng.Partition) (*object.Universe, error) {
	src := part.Stream(rng.StreamWorld)
	u, err := object.NewPlanted(object.Planted{M: spec.World.Objects, Good: spec.World.Good}, src)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
	}
	if spec.World.Zipf > 0 {
		zipf := rng.NewZipf(spec.World.Objects, spec.World.Zipf)
		good := make([]int, 0, spec.World.Good)
		seen := make(map[int]bool, spec.World.Good)
		for len(good) < spec.World.Good {
			obj := zipf.Draw(src)
			if !seen[obj] {
				seen[obj] = true
				good = append(good, obj)
			}
		}
		if err := u.Churn(good); err != nil {
			return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
		}
	}
	return u, nil
}

func (s *Spec) params() core.Params {
	return core.Params{K1: s.Protocol.K1, K2: s.Protocol.K2}
}

// runEngine drives the spec through the in-process simulation engine: the
// full feature set (open world, popularity drift, adversary campaigns).
func runEngine(ctx context.Context, spec *Spec, opts Options) (*Result, error) {
	part := rng.NewPartition(opts.Seed)
	u, err := buildUniverse(spec, part)
	if err != nil {
		return nil, err
	}
	camp, err := newCampaign(spec.Campaign, part)
	if err != nil {
		return nil, err
	}
	dyn := newDynamics(spec, part, u)

	honest := spec.Players - spec.Byzantine
	honestIDs := make([]int, honest)
	for i := range honestIDs {
		honestIDs[i] = i
	}
	cfg := sim.Config{
		Universe:  u,
		Protocol:  core.NewDistill(spec.params()),
		N:         spec.Players,
		Honest:    honestIDs,
		Seed:      opts.Seed,
		MaxRounds: spec.MaxRounds,
		Observer:  opts.Observer,
		Context:   ctx,
	}
	if camp != nil {
		cfg.Adversary = camp
	}
	if dyn != nil {
		cfg.Dynamics = dyn
	}
	eng, err := sim.NewEngine(cfg)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
	}
	sres, err := eng.Run()
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
	}

	res := &Result{
		Name:    spec.Name,
		Backend: spec.Backend,
		Seed:    opts.Seed,
		Rounds:  sres.Rounds,
		Honest:  honest,
		Digest:  eng.Board().Digest(),
		Engine:  sres,
	}
	total := 0
	for _, p := range sres.Honest {
		total += sres.Probes[p]
		switch {
		case sres.Success[p]:
			res.Found++
		case sres.DepartedRound[p] >= 0:
			res.Departed++
		default:
			res.TimedOut++
		}
	}
	res.MeanProbes = float64(total) / float64(honest)
	return res, nil
}

// runCluster drives the spec through a loopback billboard service with the
// swarm event-loop fleet — open-world churn over the real wire protocol, in
// sync or epoch mode.
func runCluster(ctx context.Context, spec *Spec, opts Options) (*Result, error) {
	part := rng.NewPartition(opts.Seed)
	u, err := buildUniverse(spec, part)
	if err != nil {
		return nil, err
	}
	dyn := newDynamics(spec, part, nil)

	honest := spec.Players - spec.Byzantine
	cfg := dist.ClusterConfig{
		Universe:  u,
		Honest:    honest,
		Byzantine: spec.Byzantine,
		Params:    spec.params(),
		Seed:      opts.Seed,
		MaxRounds: spec.MaxRounds,
		Logf:      opts.Logf,
	}
	if spec.Mode == ModeEpoch {
		cfg.Mode = server.ModeEpoch
	}
	if dyn != nil {
		cfg.Drive.Dynamics = dyn
	}
	if opts.Metrics != nil {
		cfg.Client.Metrics = opts.Metrics
	}
	cres, err := dist.RunCluster(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
	}

	res := &Result{
		Name:       spec.Name,
		Backend:    spec.Backend,
		Seed:       opts.Seed,
		Rounds:     cres.Rounds,
		Honest:     honest,
		Departed:   cres.Departed,
		MeanProbes: cres.MeanProbes,
		Digest:     cres.BoardDigest,
		Cluster:    cres,
	}
	for _, hr := range cres.Honest {
		if hr.Found {
			res.Found++
		}
		if hr.TimedOut {
			res.TimedOut++
		}
	}
	return res, nil
}
