package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/swarm"
)

// bench runs searches of one workload on one seed.
type bench struct {
	w        workload
	seed     uint64    // run seed: picks the worlds
	worlds   []world   // the worlds searches cycle through
	tries    int       // world seeds screened to find them
	groups   int       // swarm connection groups: at most the CPU count, so the load is that many connections
	stateDir string    // parent of each search's replica stores
	log      io.Writer // one line per timed search
}

// world is one seed of a workload's world — universe, tokens and player
// streams — with its reference search.
type world struct {
	seed uint64
	ref  *searchStats
}

// tracer is the instrumentation of a traced search: the program's own
// metric registries, the wire counter on the swarm's dialer, the span
// recorder and the CPU profile attribution. It accumulates over every
// traced search of a run.
type tracer struct {
	reg      *obs.Registry // server_* and billboard_*
	swarmReg *obs.Registry // swarm_*
	wire     wireCounter
	rec      *spanRecorder
	cpu      layerSamples
	profiles [][]byte
}

func newTracer() *tracer {
	return &tracer{reg: obs.NewRegistry(), swarmReg: obs.NewRegistry(), rec: newSpanRecorder(), cpu: layerSamples{}}
}

// searchStats is one search's measurements and gate outcome.
type searchStats struct {
	setup, wall, cpu time.Duration
	alloc            uint64
	gcCycles         uint32
	gcCPU, usedCPU   float64 // runtime/metrics cpu-seconds: GC, and everything but idle

	players, failed      int
	playerRounds, probes int64
	finds                []findSample // per-player find time, grouped by halting round
	rounds               []float64    // each round's wall time, ms
	journalBytes         int64
	digest               [sha256.Size]byte
}

// findSample is count players that halted at a round committed ms
// milliseconds after swarm.Run started.
type findSample struct {
	ms    float64
	count int64
}

// procSample is the process counters read around a search.
type procSample struct {
	cpu                   time.Duration
	alloc                 uint64
	numGC                 uint32
	gcCPU, totalCPU, idle float64
}

func sampleProcess() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rm := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(rm)
	return procSample{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:    ms.TotalAlloc,
		numGC:    ms.NumGC,
		gcCPU:    rm[0].Value.Float64(),
		totalCPU: rm[1].Value.Float64(),
		idle:     rm[2].Value.Float64(),
	}
}

// roundCommit is one swarm progress line: round r committed at `at` after
// running for dur seconds.
type roundCommit struct {
	round int
	at    time.Time
	dur   float64
}

// search sets up w's cluster on world wd, runs the swarm to completion and
// checks the result against the world's reference (none while screening).
// An error means the cluster could not be built; a failed search is
// reported through searchStats.failed.
func (b *bench) search(w workload, wd world, id int, tr *tracer) (*searchStats, error) {
	var (
		rec           *spanRecorder
		reg, swarmReg *obs.Registry
	)
	if tr != nil {
		rec, reg, swarmReg = tr.rec, tr.reg, tr.swarmReg
	}
	st := &searchStats{players: w.honest}
	dir := filepath.Join(b.stateDir, fmt.Sprintf("search-%d", id))

	setupStart := time.Now()
	root := rec.begin("setup", 0, id)
	c, err := setUp(w, wd.seed, dir, reg, rec, root, id)
	rec.end(root)
	st.setup = time.Since(setupStart)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	defer c.close()

	var commits []roundCommit
	cfg := swarm.Config{
		Addr: c.addr, Fallbacks: c.fallbacks, To: w.honest, Token: c.token,
		Seed: wd.seed, MaxRounds: w.rounds, Groups: b.groups, Metrics: swarmReg,
		// The per-round progress line is the round-commit clock; its
		// arguments are (round, active, found, seconds).
		Logf: func(format string, args ...any) {
			if !strings.HasPrefix(format, "swarm: round ") || len(args) != 4 {
				return
			}
			r, _ := args[0].(int)
			dur, _ := args[3].(float64)
			commits = append(commits, roundCommit{round: r, at: time.Now(), dur: dur})
		},
	}
	var prof bytes.Buffer
	if tr != nil {
		cfg.Client.Dialer = tr.wire.dial
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}

	before := sampleProcess()
	start := time.Now()
	res, runErr := swarm.Run(context.Background(), cfg)
	end := time.Now()
	after := sampleProcess()

	if tr != nil {
		pprof.StopCPUProfile()
		tr.profiles = append(tr.profiles, prof.Bytes())
		if err := tr.cpu.addProfile(prof.Bytes()); err != nil {
			return nil, err
		}
		run := rec.record("swarm.run", 0, id, start, end)
		for _, rc := range commits {
			rec.record("swarm.round", run, id, rc.at.Add(-time.Duration(rc.dur*float64(time.Second))), rc.at)
		}
		if st.journalBytes, err = c.journalBytes(); err != nil {
			return nil, err
		}
	}
	st.wall = end.Sub(start)
	st.cpu = after.cpu - before.cpu
	st.alloc = after.alloc - before.alloc
	st.gcCycles = after.numGC - before.numGC
	st.gcCPU = after.gcCPU - before.gcCPU
	st.usedCPU = (after.totalCPU - after.idle) - (before.totalCPU - before.idle)
	for _, rc := range commits {
		st.rounds = append(st.rounds, rc.dur*1e3)
	}

	if runErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s search %d: %v\n", w.name, id, runErr)
		st.failed = w.honest
		return st, nil
	}
	st.digest = c.digest()
	st.gate(res, commits, start, wd.ref)
	return st, nil
}

// gate tallies the search's player rounds, probes and find times, and
// checks it against the reference: the same board digest and probe total,
// and every honest player found. A player that was not found fails; a
// digest or probe mismatch fails every player of the search.
func (st *searchStats) gate(res *swarm.Result, commits []roundCommit, start time.Time, ref *searchStats) {
	halted := make(map[int]int64)
	for _, p := range res.Players {
		st.playerRounds += int64(p.Rounds)
		st.probes += int64(p.Probes)
		if !p.Found || p.TimedOut {
			st.failed++
			continue
		}
		halted[p.Rounds-1]++
	}
	for i, rc := range commits {
		if rc.round != i {
			fmt.Fprintf(os.Stderr, "perfbench: progress line %d reports round %d\n", i, rc.round)
			st.failed = st.players
			return
		}
		if n := halted[i]; n > 0 {
			st.finds = append(st.finds, findSample{ms: float64(rc.at.Sub(start).Nanoseconds()) / 1e6, count: n})
			delete(halted, i)
		}
	}
	if len(halted) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: players halted in rounds without a progress line\n")
		st.failed = st.players
		return
	}
	if ref == nil {
		return
	}
	if st.digest != ref.digest {
		fmt.Fprintf(os.Stderr, "perfbench: board digest %x, reference %x\n", st.digest, ref.digest)
		st.failed = st.players
	}
	if st.probes != ref.probes {
		fmt.Fprintf(os.Stderr, "perfbench: %d probes, reference %d\n", st.probes, ref.probes)
		st.failed = st.players
	}
}
