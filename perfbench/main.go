// Command perfbench is the player-round benchmark: it builds a billboard
// cluster from the packages' public functions, drives every honest player
// through a DISTILL search with the swarm driver, and reports what a search
// costs end to end (tracing off) or layer by layer (-trace 1).
//
// One process measures one workload on one seed. It first runs the same
// world on the plainest topology (sync, one coordinator, in memory) as the
// correctness reference, then one discarded warm-up search, then searches
// back to back for -seconds. Every timed search must reproduce the
// reference board digest and probe total with every honest player found.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// Run it through run.py, which builds it inside the checkout:
//
//	python3 perfbench/run.py --workload crowd --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/rng"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: crowd, longtail-epoch or quorum")
	seed := fs.Uint64("seed", 1, "run seed: picks the worlds")
	seconds := fs.Int("seconds", 10, "how long to run timed searches")
	trace := fs.Int("trace", 0, "1 runs traced and prints the per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for replica stores, spans and CPU profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (crowd, longtail-epoch, quorum), -seconds >= 1 and -trace 0|1\n")
		return 2
	}
	runDir := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *trace))
	if err := os.RemoveAll(runDir); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b := &bench{w: w, seed: *seed, groups: min(2, runtime.NumCPU()), stateDir: filepath.Join(runDir, "state"), log: stderr}
	rep, err := b.measure(time.Duration(*seconds)*time.Second, *trace == 1, runDir)
	os.RemoveAll(b.stateDir)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d worlds=%d (%d screened) trace=%d searches=%d players/search=%d fail_ratio=%g\n",
		w.name, *seed, len(b.worlds), b.tries, *trace, rep.searches, w.honest, ratio(float64(rep.failed), float64(rep.attempted)))
	for _, m := range rep.metrics {
		fmt.Fprintf(stdout, "  %-36s %14.6g %s\n", m.name, m.value, m.unit)
	}
	line, err := rep.json()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if rep.failed > 0 {
		return 1
	}
	return 0
}

type metric struct {
	name, unit string
	value      float64
}

type report struct {
	searches          int
	attempted, failed int64
	metrics           []metric
}

func (r *report) json() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = value{m.value, m.unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, ms})
}

// minSearches keeps every metric an aggregate even under a short -seconds.
const minSearches = 4

// measure runs the reference, the warm-up and the timed searches. A traced
// run alternates untraced and traced searches, so the tracing overhead is
// a same-process ratio; its metrics come from the traced half.
func (b *bench) measure(d time.Duration, traced bool, runDir string) (*report, error) {
	if err := b.pickWorlds(); err != nil {
		return nil, err
	}
	if _, err := b.search(b.w, b.worlds[0], 0, nil); err != nil {
		return nil, err
	}
	runtime.GC()

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	// A traced run takes each world twice in a row, untraced then traced,
	// so both halves see the same worlds.
	perWorld := 1
	if traced {
		perWorld = 2
	}
	var plain, instrumented []*searchStats
	rep := &report{}
	start := time.Now()
	for id := 1; id <= minSearches || time.Since(start) < d; id++ {
		var t *tracer
		if traced && id%2 == 0 {
			t = tr
		}
		st, err := b.search(b.w, b.worlds[(id-1)/perWorld%len(b.worlds)], id, t)
		if err != nil {
			return nil, err
		}
		if t != nil {
			instrumented = append(instrumented, st)
		} else {
			plain = append(plain, st)
		}
		rep.searches++
		rep.attempted += int64(st.players)
		rep.failed += int64(st.failed)
		runtime.GC() // each search starts from a collected heap
		fmt.Fprintf(b.log, "search %d traced=%t setup=%.1fms wall=%.1fms player_rounds/s=%.0f find_p50=%.1fms find_p99=%.1fms cpu/pr=%.3fus rss=%.0fMiB failed=%d\n",
			id, t != nil, st.setup.Seconds()*1e3, st.wall.Seconds()*1e3, ratio(float64(st.playerRounds), st.wall.Seconds()),
			weightedQuantile(st.finds, 0.5), weightedQuantile(st.finds, 0.99),
			ratio(float64(st.cpu.Microseconds()), float64(st.playerRounds)), procStatusMiB("VmRSS"), st.failed)
	}
	if !traced {
		rep.metrics = endToEnd(plain)
		return rep, nil
	}
	if err := tr.write(runDir); err != nil {
		return nil, err
	}
	rep.metrics = perLayer(instrumented, plain, tr, b.groups)
	return rep, nil
}

// maxWorldTries bounds the world screen; a 36-round longtail world turns
// up in about one seed in fifteen.
const maxWorldTries = 1000

// pickWorlds derives world seeds from the run seed, in order, and keeps the
// first w.worlds whose reference search (sync, one coordinator, in memory)
// finds every honest player within the workload's round budget. Each
// reference's digest and probe total gate the timed searches of its world.
func (b *bench) pickWorlds() error {
	src := rng.New(b.seed)
	for len(b.worlds) < b.w.worlds {
		if b.tries++; b.tries > maxWorldTries {
			return fmt.Errorf("seed %d: %d of %d worlds finish within %d rounds after %d tries",
				b.seed, len(b.worlds), b.w.worlds, b.w.rounds, maxWorldTries)
		}
		wd := world{seed: src.Uint64()}
		ref, err := b.search(b.w.reference(), wd, 0, nil)
		if err != nil {
			return err
		}
		if ref.failed == 0 {
			wd.ref = ref
			b.worlds = append(b.worlds, wd)
		}
	}
	return nil
}

// write saves the spans and the CPU profiles of a traced run.
func (tr *tracer) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		return err
	}
	if err := tr.rec.writeJSONL(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	for i, p := range tr.profiles {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("cpu-%03d.pprof", i)), p, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// totals sums the additive fields of a set of searches.
type totals struct {
	wall                          time.Duration
	gcCycles                      uint32
	gcCPU, usedCPU                float64
	playerRounds, probes, players int64
	journalBytes                  int64
}

func sum(ss []*searchStats) totals {
	var t totals
	for _, s := range ss {
		t.wall += s.wall
		t.gcCycles += s.gcCycles
		t.gcCPU += s.gcCPU
		t.usedCPU += s.usedCPU
		t.playerRounds += s.playerRounds
		t.probes += s.probes
		t.players += int64(s.players)
		t.journalBytes += s.journalBytes
	}
	return t
}

func (t totals) playerRoundsPerSecond() float64 {
	return ratio(float64(t.playerRounds), t.wall.Seconds())
}

// endToEnd computes the user-visible metrics of an untraced run. Each one
// is computed per search and the run reports its median over the searches,
// so a search slowed by a neighbouring process does not move the run.
func endToEnd(ss []*searchStats) []metric {
	median := func(f func(s *searchStats) float64) float64 {
		xs := make([]float64, len(ss))
		for i, s := range ss {
			xs[i] = f(s)
		}
		return quantile(xs, 0.5)
	}
	t := sum(ss)
	return []metric{
		{"setup_s", "s", median(func(s *searchStats) float64 { return s.setup.Seconds() })},
		{"player_rounds_per_s", "1/s", median(func(s *searchStats) float64 {
			return ratio(float64(s.playerRounds), s.wall.Seconds())
		})},
		{"find_p50_ms", "ms", median(func(s *searchStats) float64 { return weightedQuantile(s.finds, 0.5) })},
		{"find_p99_ms", "ms", median(func(s *searchStats) float64 { return weightedQuantile(s.finds, 0.99) })},
		{"probes_per_player", "probes", ratio(float64(t.probes), float64(t.players))},
		{"cpu_us_per_player_round", "us", median(func(s *searchStats) float64 {
			return ratio(float64(s.cpu.Microseconds()), float64(s.playerRounds))
		})},
		{"alloc_bytes_per_player_round", "B", median(func(s *searchStats) float64 {
			return ratio(float64(s.alloc), float64(s.playerRounds))
		})},
		{"peak_rss_mb", "MiB", procStatusMiB("VmHWM")},
	}
}

// perLayer computes the per-layer metrics of a traced run from its traced
// searches; plain are the same run's untraced searches.
func perLayer(traced, plain []*searchStats, tr *tracer, groups int) []metric {
	t := sum(traced)
	pr := float64(t.playerRounds)
	wall := t.wall.Seconds()
	srv := tr.reg.Snapshot()
	sw := tr.swarmReg.Snapshot()
	serverRounds := srv["server_rounds_total"]
	var requests float64
	for name, v := range srv {
		if strings.HasPrefix(name, "server_requests_total{") {
			requests += v
		}
	}
	var rounds []float64
	for _, s := range traced {
		rounds = append(rounds, s.rounds...)
	}
	self := selfTimes(tr.rec.spans)
	var runSelf, runDur float64
	for _, sp := range tr.rec.spans {
		if sp.Name == "swarm.run" {
			runSelf += self[sp.ID]
			runDur += sp.End - sp.Start
		}
	}
	ms := []metric{
		{"swarm.round_p50_ms", "ms", quantile(rounds, 0.5)},
		{"swarm.round_p90_ms", "ms", quantile(rounds, 0.9)},
		{"swarm.barrier_wait_share", "ratio", ratio(sw["swarm_barrier_wait_seconds_sum"], wall*float64(groups))},
		{"swarm.frames_per_player_round", "frames", ratio(sw["swarm_frames_sent_total"], pr)},
		{"swarm.outside_rounds_share", "ratio", ratio(runSelf, runDur)},
		{"wire.bytes_out_per_player_round", "B", ratio(float64(tr.wire.bytesOut.Load()), pr)},
		{"wire.bytes_in_per_player_round", "B", ratio(float64(tr.wire.bytesIn.Load()), pr)},
		{"wire.writes_per_player_round", "writes", ratio(float64(tr.wire.writes.Load()), pr)},
		{"server.requests_per_player_round", "requests", ratio(requests, pr)},
		{"server.epoch_requests_per_round", "requests", ratio(srv[`server_requests_total{type="epoch"}`], serverRounds)},
		{"server.request_mean_us", "us", 1e6 * ratio(srv["server_request_seconds_sum"], srv["server_request_seconds_count"])},
		{"server.read_cache_hit_ratio", "ratio", ratio(srv["server_read_cache_hits_total"],
			srv["server_read_cache_hits_total"]+srv["server_read_cache_misses_total"])},
		{"server.barrier_wait_mean_ms", "ms", 1e3 * ratio(srv["server_barrier_wait_seconds_sum"], srv["server_barrier_wait_seconds_count"])},
		{"server.quorum_ack_mean_ms", "ms", 1e3 * ratio(srv["server_quorum_ack_seconds_sum"], srv["server_quorum_ack_seconds_count"])},
		{"server.dedup_replays", "count", srv["server_dedup_replays_total"]},
		{"billboard.posts_per_player_round", "posts", ratio(srv["billboard_posts_total"], pr)},
		{"billboard.window_queries_per_round", "queries", ratio(srv["billboard_window_queries_total"], serverRounds)},
		{"journal.bytes_per_player_round", "B", ratio(float64(t.journalBytes), pr)},
		{"runtime.gc_cpu_share", "ratio", ratio(t.gcCPU, t.usedCPU)},
		{"runtime.gc_cycles_per_search", "cycles", ratio(float64(t.gcCycles), float64(len(traced)))},
		{"trace.overhead_ratio", "ratio", ratio(t.playerRoundsPerSecond(), sum(plain).playerRoundsPerSecond())},
	}
	shares := tr.cpu.shares()
	for _, l := range cpuLayers {
		ms = append(ms, metric{l + ".cpu_share", "ratio", shares[l]})
	}
	return ms
}

// ratio is a/b, or 0 when b is 0 (an empty run reports zeros, not NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile is the q-quantile of xs by linear interpolation (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// weightedQuantile is the nearest-rank q-quantile of a pooled sample where
// each findSample stands for count equal values.
func weightedQuantile(xs []findSample, q float64) float64 {
	s := append([]findSample(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i].ms < s[j].ms })
	var total int64
	for _, x := range s {
		total += x.count
	}
	rank := int64(q * float64(total))
	var seen int64
	for _, x := range s {
		seen += x.count
		if seen > rank {
			return x.ms
		}
	}
	return 0
}

// procStatusMiB reads a kB field of /proc/self/status, such as VmHWM (peak
// resident set) or VmRSS, in MiB; 0 if unreadable.
func procStatusMiB(field string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
