package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R)
BenchmarkEngineRoundDistill      	    2194	    494819 ns/op	         9.220 probes/player	  438138 B/op	    1113 allocs/op
BenchmarkBillboardWindowCount    	  465112	      2591 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	repro	3.831s
`

func TestParse(t *testing.T) {
	doc, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Env["goos"] != "linux" || doc.Env["pkg"] != "repro" {
		t.Fatalf("env = %v", doc.Env)
	}
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks, want 2", len(doc.Benchmarks))
	}
	e := doc.Benchmarks[0]
	if e.Name != "BenchmarkEngineRoundDistill" || e.Iterations != 2194 ||
		e.NsPerOp != 494819 || e.BytesPerOp != 438138 || e.AllocsOp != 1113 ||
		e.Metrics["probes/player"] != 9.22 {
		t.Fatalf("entry 0 = %+v", e)
	}
	if w := doc.Benchmarks[1]; w.NsPerOp != 2591 || w.BytesPerOp != 0 || len(w.Metrics) != 0 {
		t.Fatalf("entry 1 = %+v", w)
	}
}

func TestCaptureEnv(t *testing.T) {
	doc, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	captureEnv(doc.Env)
	if got, want := doc.Env["gomaxprocs"], strconv.Itoa(runtime.GOMAXPROCS(0)); got != want {
		t.Errorf("gomaxprocs = %q, want %q", got, want)
	}
	if got, want := doc.Env["numcpu"], strconv.Itoa(runtime.NumCPU()); got != want {
		t.Errorf("numcpu = %q, want %q", got, want)
	}
	// go test's own cpu: line wins over /proc/cpuinfo when present.
	if doc.Env["cpu"] != "Intel(R) Xeon(R)" {
		t.Errorf("cpu = %q, want the parsed cpu: line", doc.Env["cpu"])
	}
}

func TestLaterEntryWins(t *testing.T) {
	in := `BenchmarkFoo 10 100 ns/op
BenchmarkBar 20 200 ns/op
BenchmarkFoo 1000 42 ns/op
`
	doc, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks, want 2 (deduped)", len(doc.Benchmarks))
	}
	if e := doc.Benchmarks[0]; e.Name != "BenchmarkFoo" || e.NsPerOp != 42 || e.Iterations != 1000 {
		t.Fatalf("dedup kept %+v, want the later BenchmarkFoo", e)
	}
}

func TestEmptyInputIsError(t *testing.T) {
	if _, err := parse(strings.NewReader("PASS\n")); err == nil {
		t.Fatal("expected error on input with no bench lines")
	}
}

func writeBaseline(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const diffBaseline = `{
  "benchmarks": [
    {"name": "BenchmarkFast", "iterations": 100000, "ns_per_op": 100},
    {"name": "BenchmarkSlow", "iterations": 1000, "ns_per_op": 5000},
    {"name": "BenchmarkGone", "iterations": 10, "ns_per_op": 77}
  ]
}`

func TestDiffWithinBudgetPasses(t *testing.T) {
	base := writeBaseline(t, diffBaseline)
	// +4% and -10%: both inside a 5% regression budget. The -8 suffix must
	// match the unsuffixed baseline name.
	in := "BenchmarkFast-8 100000 104 ns/op\nBenchmarkSlow-8 1000 4500 ns/op\n"
	var out strings.Builder
	if err := run([]string{"-baseline", base, "-max-regress", "5"}, strings.NewReader(in), &out); err != nil {
		t.Fatalf("diff failed inside budget: %v\n%s", err, out.String())
	}
	got := out.String()
	if !strings.Contains(got, "BenchmarkFast") || !strings.Contains(got, "+4.0%") {
		t.Fatalf("missing delta report:\n%s", got)
	}
	if !strings.Contains(got, "not run") {
		t.Fatalf("baseline-only benchmark not reported:\n%s", got)
	}
	// The baseline records no env at all, so no machine-mismatch warning.
	if strings.Contains(got, "WARNING") {
		t.Fatalf("env warning against an env-less baseline:\n%s", got)
	}
}

// A baseline recorded under a different GOMAXPROCS/core count must be
// flagged loudly: concurrent benchmarks depend on real parallelism, so a
// cross-machine delta is a machine comparison, not a code one. The
// warning never fails the run.
func TestDiffWarnsOnEnvMismatch(t *testing.T) {
	// gomaxprocs "0" can never match a live runtime value.
	base := writeBaseline(t, `{
  "env": {"gomaxprocs": "0", "irrelevant": "ignored"},
  "benchmarks": [{"name": "BenchmarkFast", "iterations": 100000, "ns_per_op": 100}]
}`)
	in := "BenchmarkFast 100000 100 ns/op\n"
	var out strings.Builder
	if err := run([]string{"-baseline", base}, strings.NewReader(in), &out); err != nil {
		t.Fatalf("env mismatch must warn, not fail: %v", err)
	}
	got := out.String()
	if !strings.Contains(got, "WARNING") || !strings.Contains(got, "gomaxprocs") {
		t.Fatalf("missing env-mismatch warning:\n%s", got)
	}
	if strings.Contains(got, "irrelevant") {
		t.Fatalf("warned on a key the current run does not record:\n%s", got)
	}
}

func TestDiffFailsOnRegression(t *testing.T) {
	base := writeBaseline(t, diffBaseline)
	in := "BenchmarkFast 100000 120 ns/op\nBenchmarkSlow 1000 5001 ns/op\n"
	var out strings.Builder
	err := run([]string{"-baseline", base, "-max-regress", "5"}, strings.NewReader(in), &out)
	if err == nil {
		t.Fatalf("20%% regression passed a 5%% gate:\n%s", out.String())
	}
	// Only the benchmark past the budget fails; +0.02% on BenchmarkSlow is fine.
	if !strings.Contains(err.Error(), "BenchmarkFast") || strings.Contains(err.Error(), "BenchmarkSlow") {
		t.Fatalf("wrong regression set: %v", err)
	}
}

func TestDiffNewBenchmarkIsNotRegression(t *testing.T) {
	base := writeBaseline(t, diffBaseline)
	in := "BenchmarkBrandNew 50 900 ns/op\nBenchmarkFast 100000 100 ns/op\n"
	var out strings.Builder
	if err := run([]string{"-baseline", base}, strings.NewReader(in), &out); err != nil {
		t.Fatalf("new benchmark treated as regression: %v", err)
	}
	if !strings.Contains(out.String(), "new") {
		t.Fatalf("new benchmark not reported:\n%s", out.String())
	}
}

// A baseline entry with a zero or missing ns/op cannot anchor a delta: the
// gate must say so instead of printing Inf/NaN or silently skipping the
// benchmark.
func TestDiffZeroBaselineNsIsClearError(t *testing.T) {
	base := writeBaseline(t, `{
  "benchmarks": [
    {"name": "BenchmarkFast", "iterations": 100000, "ns_per_op": 100},
    {"name": "BenchmarkZero", "iterations": 10, "ns_per_op": 0},
    {"name": "BenchmarkMissing", "iterations": 10}
  ]
}`)
	in := "BenchmarkFast 100000 100 ns/op\nBenchmarkZero 10 50 ns/op\nBenchmarkMissing 10 60 ns/op\n"
	var out strings.Builder
	err := run([]string{"-baseline", base}, strings.NewReader(in), &out)
	if err == nil {
		t.Fatalf("zero-ns baseline passed silently:\n%s", out.String())
	}
	msg := err.Error()
	for _, want := range []string{"BenchmarkZero", "BenchmarkMissing", "re-record"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q does not mention %q", msg, want)
		}
	}
	if strings.Contains(msg, "Inf") || strings.Contains(msg, "NaN") {
		t.Fatalf("error leaked Inf/NaN: %q", msg)
	}
}

// A baseline with no usable entry at all is a recording mistake, not a
// clean pass.
func TestDiffAllZeroBaselineIsError(t *testing.T) {
	base := writeBaseline(t, `{"benchmarks": [{"name": "BenchmarkA", "iterations": 5, "ns_per_op": 0}]}`)
	var out strings.Builder
	err := run([]string{"-baseline", base}, strings.NewReader("BenchmarkA 5 10 ns/op\n"), &out)
	if err == nil || !strings.Contains(err.Error(), "re-record") {
		t.Fatalf("all-zero baseline: err = %v", err)
	}
}

// A current run that produced no ns/op for a gated benchmark is equally
// unanchored — the gate cannot pass it by default.
func TestDiffZeroCurrentNsIsClearError(t *testing.T) {
	base := writeBaseline(t, diffBaseline)
	in := "BenchmarkFast 100000 0 ns/op\n"
	var out strings.Builder
	err := run([]string{"-baseline", base}, strings.NewReader(in), &out)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkFast") {
		t.Fatalf("zero current ns/op: err = %v", err)
	}
}

// The -faster scaling gate compares two benchmarks from the same run: pass
// when A beat B, fail when it did not, and fail loudly when either side is
// missing (a renamed benchmark must not silently disarm the gate).
func TestFasterGate(t *testing.T) {
	in := "BenchmarkEpochPostRound/mode-sync-8 100 5000 ns/op\n" +
		"BenchmarkEpochPostRound/mode-epoch-8 400 1200 ns/op\n"
	var out strings.Builder
	err := run([]string{"-faster", "BenchmarkEpochPostRound/mode-epoch<BenchmarkEpochPostRound/mode-sync", "-o", filepath.Join(t.TempDir(), "b.json")},
		strings.NewReader(in), &out)
	if err != nil {
		t.Fatalf("gate failed on a 4x win: %v", err)
	}
	if !strings.Contains(out.String(), "scaling gate ok") {
		t.Fatalf("missing gate report:\n%s", out.String())
	}

	err = run([]string{"-faster", "BenchmarkEpochPostRound/mode-sync<BenchmarkEpochPostRound/mode-epoch"},
		strings.NewReader(in), &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "not faster") {
		t.Fatalf("inverted gate passed: %v", err)
	}

	err = run([]string{"-faster", "BenchmarkNope<BenchmarkEpochPostRound/mode-sync"},
		strings.NewReader(in), &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "lacks a positive ns/op") {
		t.Fatalf("missing benchmark disarmed the gate: %v", err)
	}
}

// A missing baseline file is the clean-checkout case: the gate skips loudly
// instead of failing, so `make check` works before any baseline has been
// recorded on this machine.
func TestDiffMissingBaselineIsLoudSkip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nonexistent.json")
	var out strings.Builder
	err := run([]string{"-baseline", path}, strings.NewReader("BenchmarkFast 100 10 ns/op\n"), &out)
	if err != nil {
		t.Fatalf("missing baseline must skip, not fail: %v", err)
	}
	got := out.String()
	if !strings.Contains(got, "SKIP") || !strings.Contains(got, path) {
		t.Fatalf("skip banner missing or does not name the baseline:\n%s", got)
	}
}

// A baseline that exists but does not parse is a corrupt recording — that
// stays fatal, unlike the missing-file case.
func TestDiffMalformedBaselineStaysFatal(t *testing.T) {
	base := writeBaseline(t, "{not json")
	var out strings.Builder
	err := run([]string{"-baseline", base}, strings.NewReader("BenchmarkFast 100 10 ns/op\n"), &out)
	if err == nil {
		t.Fatalf("malformed baseline passed:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), base) {
		t.Fatalf("error does not name the baseline: %v", err)
	}
}

// An unreadable-for-other-reasons baseline (a directory, here) is not the
// clean-checkout case and must keep failing.
func TestDiffUnreadableBaselineStaysFatal(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	err := run([]string{"-baseline", dir}, strings.NewReader("BenchmarkFast 100 10 ns/op\n"), &out)
	if err == nil {
		t.Fatalf("directory baseline passed:\n%s", out.String())
	}
	if strings.Contains(out.String(), "SKIP") {
		t.Fatalf("non-ENOENT read error downgraded to skip:\n%s", out.String())
	}
}

func TestTrimCPUSuffix(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkFoo-8":        "BenchmarkFoo",
		"BenchmarkFoo-16":       "BenchmarkFoo",
		"BenchmarkFoo":          "BenchmarkFoo",
		"BenchmarkE1_CostVsN":   "BenchmarkE1_CostVsN",
		"BenchmarkFoo-bar":      "BenchmarkFoo-bar",
		"BenchmarkWindow/n-2-4": "BenchmarkWindow/n-2",
	} {
		if got := trimCPUSuffix(in); got != want {
			t.Errorf("trimCPUSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}
