// Command benchjson converts `go test -bench -benchmem` output on stdin into
// a stable JSON document for recording benchmark baselines in the repo:
//
//	go test -bench . -benchmem ./... | benchjson -o BENCH.json
//
// Standard metrics (ns/op, B/op, allocs/op) get their own fields; any custom
// testing.B ReportMetric units (probes/player, table_rows, …) land in the
// metrics map. When the same benchmark name appears more than once — e.g. a
// quick pass and a high -benchtime pass concatenated — the later entry wins,
// so multi-pass harnesses can refine individual numbers.
//
// With -baseline it becomes a regression gate instead: the fresh results on
// stdin are diffed against a recorded baseline file and the run fails when
// any shared benchmark's ns/op grew by more than -max-regress percent:
//
//	go test -bench 'BenchmarkBillboard' . | benchjson -baseline BENCH_PR2.json -max-regress 5
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Entry is one benchmark result.
type Entry struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op,omitempty"`
	BytesPerOp float64            `json:"bytes_per_op,omitempty"`
	AllocsOp   float64            `json:"allocs_per_op,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Doc is the whole baseline file.
type Doc struct {
	Env        map[string]string `json:"env,omitempty"`
	Benchmarks []Entry           `json:"benchmarks"`
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	outPath := fs.String("o", "", "write JSON to this file instead of stdout")
	baseline := fs.String("baseline", "", "diff ns/op against this recorded baseline instead of emitting JSON")
	maxRegress := fs.Float64("max-regress", 5, "with -baseline: fail when ns/op grew by more than this percent")
	faster := fs.String("faster", "", `scaling gate "A<B": fail unless benchmark A ran in fewer ns/op than B in this input`)
	if err := fs.Parse(args); err != nil {
		return err
	}

	doc, err := parse(in)
	if err != nil {
		return err
	}
	captureEnv(doc.Env)
	if *baseline != "" {
		return diff(doc, *baseline, *maxRegress, out)
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if *outPath != "" {
		// Record before gating so a failed gate still leaves the numbers on
		// disk for inspection.
		if err := os.WriteFile(*outPath, buf, 0o644); err != nil {
			return err
		}
	} else if _, err := out.Write(buf); err != nil {
		return err
	}
	if *faster != "" {
		return requireFaster(doc, *faster, out)
	}
	return nil
}

// requireFaster enforces a same-run ordering gate, spec "A<B": benchmark
// A's ns/op must be strictly below B's. Both sides ran on the same machine
// in the same pass, so the gate asserts that A beats B in absolute time,
// not merely that neither regressed against a baseline recorded elsewhere.
func requireFaster(doc *Doc, spec string, out io.Writer) error {
	aName, bName, ok := strings.Cut(spec, "<")
	if !ok {
		return fmt.Errorf(`-faster %q: want the form "A<B"`, spec)
	}
	aName, bName = strings.TrimSpace(aName), strings.TrimSpace(bName)
	ns := map[string]float64{}
	for _, e := range doc.Benchmarks {
		ns[trimCPUSuffix(e.Name)] = e.NsPerOp
	}
	a, b := ns[aName], ns[bName]
	if a <= 0 || b <= 0 {
		return fmt.Errorf("-faster %s: input lacks a positive ns/op for both sides (%s=%.1f, %s=%.1f)",
			spec, aName, a, bName, b)
	}
	if a >= b {
		return fmt.Errorf("scaling gate failed: %s at %.1f ns/op is not faster than %s at %.1f ns/op",
			aName, a, bName, b)
	}
	fmt.Fprintf(out, "scaling gate ok: %s %.1f ns/op < %s %.1f ns/op (%.2fx)\n",
		aName, a, bName, b, b/a)
	return nil
}

// captureEnv records the execution environment next to whatever go test
// printed. benchjson reads the benchmark's own pipe, so it runs on the
// machine that produced the numbers — GOMAXPROCS and the core count here
// are the ones the results depend on (a concurrent benchmark recorded on 1
// core is not comparable to one recorded on 16).
func captureEnv(env map[string]string) {
	env["gomaxprocs"] = strconv.Itoa(runtime.GOMAXPROCS(0))
	env["numcpu"] = strconv.Itoa(runtime.NumCPU())
	if env["cpu"] == "" {
		// go test omits the cpu: line on some platforms; fall back to the
		// kernel's model string so the baseline still names the machine.
		if model := cpuModel(); model != "" {
			env["cpu"] = model
		}
	}
}

// cpuModel reads the processor model from /proc/cpuinfo; returns "" where
// that file does not exist (non-linux) or has no model line.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// warnEnvMismatch prints a loud banner when the current run's environment
// differs from the baseline's on any key both sides recorded. Keys missing
// on either side are ignored — baselines recorded before env capture stay
// diffable. Never fails the run: a machine change makes the deltas suspect,
// not wrong.
func warnEnvMismatch(cur, base map[string]string, out io.Writer) {
	var keys []string
	for k, bv := range base {
		if cv, ok := cur[k]; ok && cv != bv {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return
	}
	sort.Strings(keys)
	fmt.Fprintln(out, "=================================================================")
	fmt.Fprintln(out, "WARNING: benchmark environment differs from the recorded baseline;")
	fmt.Fprintln(out, "the deltas below may reflect the machine, not the code:")
	for _, k := range keys {
		fmt.Fprintf(out, "  %-12s baseline %q, current %q\n", k, base[k], cur[k])
	}
	fmt.Fprintln(out, "=================================================================")
}

// diff compares the fresh results against a recorded baseline and errors
// when any shared benchmark regressed by more than maxRegress percent on
// ns/op. Names are matched with the GOMAXPROCS suffix stripped so a
// baseline recorded at -cpu 1 still gates runs on multicore machines;
// benchmarks present on only one side are reported but never fail the run.
func diff(cur *Doc, baselinePath string, maxRegress float64, out io.Writer) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		if os.IsNotExist(err) {
			// A missing baseline is the clean-checkout case (the BENCH_*.json
			// files are recorded per machine, not committed everywhere): the
			// gate cannot run, but that should not fail `make check` — skip
			// loudly so the absence is visible, unlike a malformed baseline,
			// which stays fatal (it means the recording is corrupt).
			fmt.Fprintln(out, "=================================================================")
			fmt.Fprintf(out, "SKIP: baseline %s does not exist; regression gate not run.\n", baselinePath)
			fmt.Fprintln(out, "Record it with `make bench-diff` (or benchjson -o) to arm the gate.")
			fmt.Fprintln(out, "=================================================================")
			return nil
		}
		return err
	}
	var base Doc
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", baselinePath, err)
	}
	// A baseline entry without a positive ns/op cannot anchor a delta —
	// dividing by it would print Inf/NaN, and skipping it would silently
	// un-gate the benchmark. Track those names and fail loudly when the
	// current run shares one: the baseline needs re-recording.
	baseNs := map[string]float64{}
	baseBad := map[string]bool{}
	for _, e := range base.Benchmarks {
		if e.NsPerOp > 0 {
			baseNs[trimCPUSuffix(e.Name)] = e.NsPerOp
		} else {
			baseBad[trimCPUSuffix(e.Name)] = true
		}
	}
	if len(baseNs) == 0 {
		return fmt.Errorf("baseline %s: no benchmark has a positive ns/op; re-record it", baselinePath)
	}
	warnEnvMismatch(cur.Env, base.Env, out)

	var regressions, unanchored []string
	fmt.Fprintf(out, "%-40s %14s %14s %9s\n", "benchmark", "baseline ns/op", "current ns/op", "delta")
	for _, e := range cur.Benchmarks {
		name := trimCPUSuffix(e.Name)
		b, ok := baseNs[name]
		if baseBad[name] && !ok {
			unanchored = append(unanchored, name)
			continue
		}
		if ok && e.NsPerOp <= 0 {
			unanchored = append(unanchored, name+" (current run has no ns/op)")
			continue
		}
		if !ok {
			fmt.Fprintf(out, "%-40s %14s %14.1f %9s\n", name, "-", e.NsPerOp, "new")
			continue
		}
		delete(baseNs, name)
		delta := 100 * (e.NsPerOp - b) / b
		verdict := fmt.Sprintf("%+7.1f%%", delta)
		if delta > maxRegress {
			verdict += " FAIL"
			regressions = append(regressions, fmt.Sprintf("%s: %.1f → %.1f ns/op (%+.1f%% > %.1f%%)",
				name, b, e.NsPerOp, delta, maxRegress))
		}
		fmt.Fprintf(out, "%-40s %14.1f %14.1f %s\n", name, b, e.NsPerOp, verdict)
	}
	missing := make([]string, 0, len(baseNs))
	for name := range baseNs {
		missing = append(missing, name)
	}
	sort.Strings(missing)
	for _, name := range missing {
		fmt.Fprintf(out, "%-40s %14.1f %14s %9s\n", name, baseNs[name], "-", "not run")
	}
	if len(unanchored) > 0 {
		sort.Strings(unanchored)
		return fmt.Errorf("cannot compute a delta for %d benchmark(s) — zero or missing ns/op in %s:\n  %s\nre-record the baseline",
			len(unanchored), baselinePath, strings.Join(unanchored, "\n  "))
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed past %.1f%%:\n  %s",
			len(regressions), maxRegress, strings.Join(regressions, "\n  "))
	}
	return nil
}

// trimCPUSuffix drops go test's "-<GOMAXPROCS>" benchmark name suffix.
func trimCPUSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i <= 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

func parse(in io.Reader) (*Doc, error) {
	doc := &Doc{Env: map[string]string{}}
	index := map[string]int{} // name → position in doc.Benchmarks; later wins
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || line == "PASS" || strings.HasPrefix(line, "ok "):
			continue
		case strings.HasPrefix(line, "goos:") || strings.HasPrefix(line, "goarch:") ||
			strings.HasPrefix(line, "pkg:") || strings.HasPrefix(line, "cpu:"):
			key, val, _ := strings.Cut(line, ":")
			doc.Env[key] = strings.TrimSpace(val)
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		e, err := parseBenchLine(line)
		if err != nil {
			return nil, err
		}
		if at, seen := index[e.Name]; seen {
			doc.Benchmarks[at] = e
		} else {
			index[e.Name] = len(doc.Benchmarks)
			doc.Benchmarks = append(doc.Benchmarks, e)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines found in input")
	}
	return doc, nil
}

// parseBenchLine decodes one result line: a name, an iteration count, then
// value/unit pairs.
//
//	BenchmarkFoo-8   1000   1234 ns/op   56 B/op   7 allocs/op   9.2 probes/player
func parseBenchLine(line string) (Entry, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Entry{}, fmt.Errorf("malformed bench line %q", line)
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Entry{}, fmt.Errorf("bench line %q: iterations: %w", line, err)
	}
	e := Entry{Name: fields[0], Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Entry{}, fmt.Errorf("bench line %q: value %q: %w", line, fields[i], err)
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			e.NsPerOp = val
		case "B/op":
			e.BytesPerOp = val
		case "allocs/op":
			e.AllocsOp = val
		default:
			if e.Metrics == nil {
				e.Metrics = map[string]float64{}
			}
			e.Metrics[unit] = val
		}
	}
	return e, nil
}
