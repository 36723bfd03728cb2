package repro_test

import (
	"testing"

	"repro"
	"repro/internal/billboard"
	"repro/internal/expt"
)

// benchOpts keeps the per-iteration work of an experiment benchmark small
// enough for testing.B while still exercising the full pipeline. The bench
// reports the wall time of one scaled experiment run; regenerating the
// EXPERIMENTS.md numbers is cmd/experiments' job at scale 1.
var benchOpts = expt.Options{Scale: 0.15, BaseSeed: 7}

// benchExperiment runs one registry experiment per iteration and reports
// its table row count (a sanity signal that the workload executed).
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := expt.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	rows := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := e.Run(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		rows = tab.NumRows()
	}
	b.ReportMetric(float64(rows), "table_rows")
}

// One bench per experiment table (DESIGN.md §5).

func BenchmarkE1_CostVsN(b *testing.B)            { benchExperiment(b, "E1") }
func BenchmarkE2_CostVsAlpha(b *testing.B)        { benchExperiment(b, "E2") }
func BenchmarkE3_Corollary5(b *testing.B)         { benchExperiment(b, "E3") }
func BenchmarkE4_LowerBoundWork(b *testing.B)     { benchExperiment(b, "E4") }
func BenchmarkE5_LowerBoundSymmetry(b *testing.B) { benchExperiment(b, "E5") }
func BenchmarkE6_AdversarySuite(b *testing.B)     { benchExperiment(b, "E6") }
func BenchmarkE7_HighProbability(b *testing.B)    { benchExperiment(b, "E7") }
func BenchmarkE8_AlphaGuess(b *testing.B)         { benchExperiment(b, "E8") }
func BenchmarkE9_CostClasses(b *testing.B)        { benchExperiment(b, "E9") }
func BenchmarkE10_NoLocalTesting(b *testing.B)    { benchExperiment(b, "E10") }
func BenchmarkE11_MultiVote(b *testing.B)         { benchExperiment(b, "E11") }
func BenchmarkE12_ThreePhase(b *testing.B)        { benchExperiment(b, "E12") }
func BenchmarkE13_Iterations(b *testing.B)        { benchExperiment(b, "E13") }

// Ablation benches (DESIGN.md §6).

func BenchmarkA1_AdviceAblation(b *testing.B)    { benchExperiment(b, "A1") }
func BenchmarkA2_VoteCapAblation(b *testing.B)   { benchExperiment(b, "A2") }
func BenchmarkA3_ThresholdAblation(b *testing.B) { benchExperiment(b, "A3") }
func BenchmarkA4_WindowAblation(b *testing.B)    { benchExperiment(b, "A4") }
func BenchmarkA5_MisguessedAlpha(b *testing.B)   { benchExperiment(b, "A5") }

// Open-problem extension benches (paper §6 / §1.2 motivation).

func BenchmarkX1_AsyncSchedules(b *testing.B)  { benchExperiment(b, "X1") }
func BenchmarkX2_NegativeVeto(b *testing.B)    { benchExperiment(b, "X2") }
func BenchmarkX3_Ownership(b *testing.B)       { benchExperiment(b, "X3") }
func BenchmarkX4_Popularity(b *testing.B)      { benchExperiment(b, "X4") }
func BenchmarkX5_TrustCollective(b *testing.B) { benchExperiment(b, "X5") }
func BenchmarkX6_Churn(b *testing.B)           { benchExperiment(b, "X6") }

// Micro-benchmarks of the substrate hot paths.

func BenchmarkEngineRoundDistill(b *testing.B) {
	// One full DISTILL search per iteration; reports probes per player so
	// regressions in algorithm quality are visible next to time/op.
	var probes float64
	for i := 0; i < b.N; i++ {
		res, err := repro.Run(repro.SearchConfig{
			Players: 1024, Objects: 1024, Alpha: 0.9,
			Adversary: "spam-distinct", Seed: uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		probes = res.MeanHonestProbes()
	}
	b.ReportMetric(probes, "probes/player")
}

func BenchmarkBillboardPostCommit(b *testing.B) {
	board, err := billboard.New(billboard.Config{Players: 1 << 16, Objects: 1 << 16})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = board.Post(billboard.Post{
			Player: i % (1 << 16), Object: i % (1 << 16), Value: 1, Positive: true,
		})
		if i%1024 == 1023 {
			board.EndRound()
		}
	}
}

func windowCountBoard(b *testing.B) *billboard.Board {
	b.Helper()
	board, err := billboard.New(billboard.Config{Players: 4096, Objects: 4096})
	if err != nil {
		b.Fatal(err)
	}
	for p := 0; p < 4096; p++ {
		_ = board.Post(billboard.Post{Player: p, Object: p % 64, Value: 1, Positive: true})
		if p%128 == 127 {
			board.EndRound()
		}
	}
	board.EndRound()
	return board
}

// BenchmarkBillboardWindowCount measures the engine's window-count read path:
// the event-offset index plus a reused WindowCounts buffer, as the DISTILL
// hot loop consumes it (allocation-free once warm).
func BenchmarkBillboardWindowCount(b *testing.B) {
	board := windowCountBoard(b)
	var wc billboard.WindowCounts
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		board.CountVotesInWindow(8, 24, &wc)
	}
}
