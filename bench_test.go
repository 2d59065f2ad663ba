// Benchmarks regenerating every table and figure of the paper, plus
// component microbenchmarks and the ablations DESIGN.md calls out.
//
// The experiment benches run the full pipeline at a reduced workload scale
// (benchScale) so `go test -bench=.` completes in minutes; cmd/hotpath runs
// the same code at scale 1.0 for the reported numbers.
package netpath_test

import (
	"sync"
	"testing"

	"netpath/internal/boa"
	"netpath/internal/branchpred"
	"netpath/internal/dynamo"
	"netpath/internal/experiments"
	"netpath/internal/metrics"
	"netpath/internal/par"
	"netpath/internal/predict"
	"netpath/internal/profile"
	"netpath/internal/tracecache"
	"netpath/internal/vm"
	"netpath/internal/workload"
)

const benchScale = 0.05

var (
	profOnce sync.Once
	profAll  []experiments.BenchProfile
	profErr  error
)

func benchProfiles(b *testing.B) []experiments.BenchProfile {
	b.Helper()
	profOnce.Do(func() {
		profAll, profErr = experiments.CollectAll(benchScale)
	})
	if profErr != nil {
		b.Fatal(profErr)
	}
	return profAll
}

// --- Pipeline benchmarks (the parallel worker pool) -------------------------

// BenchmarkCollectAll measures the oracle-profile collection fan-out — the
// expensive pipeline stage — at the configured pool width (GOMAXPROCS).
// Compare with BenchmarkCollectAllSerial for the multi-core speedup; the
// determinism tests pin that both produce identical output.
func BenchmarkCollectAll(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CollectAll(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectAllSerial is the single-worker reference for
// BenchmarkCollectAll.
func BenchmarkCollectAllSerial(b *testing.B) {
	old := par.SetWorkers(1)
	defer par.SetWorkers(old)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CollectAll(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepParallel measures the flattened (benchmark, scheme, τ) replay
// grid at the configured pool width.
func BenchmarkSweepParallel(b *testing.B) {
	bps := benchProfiles(b)
	taus := metrics.DefaultTaus()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.SweepSchemes(bps, taus)
	}
}

// BenchmarkSweepSerial is the single-worker reference for
// BenchmarkSweepParallel.
func BenchmarkSweepSerial(b *testing.B) {
	bps := benchProfiles(b)
	taus := metrics.DefaultTaus()
	old := par.SetWorkers(1)
	defer par.SetWorkers(old)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.SweepSchemes(bps, taus)
	}
}

// --- One benchmark per table/figure ---------------------------------------

// BenchmarkTable1 regenerates the benchmark-set table end to end: oracle
// profile collection (fanned out on the worker pool) plus rendering. This is
// the headline pipeline benchmark — its wall-clock scales with cores.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bps, err := experiments.CollectAll(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		_ = experiments.Table1(bps)
	}
}

// BenchmarkTable1Render measures only the table rendering over cached
// profiles (the pre-pool BenchmarkTable1).
func BenchmarkTable1Render(b *testing.B) {
	bps := benchProfiles(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.Table1(bps)
	}
}

// BenchmarkTable2 regenerates the paths-vs-heads table.
func BenchmarkTable2(b *testing.B) {
	bps := benchProfiles(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.Table2(bps)
	}
}

// BenchmarkFig2 regenerates the hit-rate sweep for both schemes (the τ sweep
// dominates; rendering is free).
func BenchmarkFig2(b *testing.B) {
	bps := benchProfiles(b)
	taus := metrics.DefaultTaus()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series := experiments.SweepSchemes(bps, taus)
		_ = experiments.Fig2(series)
	}
}

// BenchmarkFig3 regenerates the noise-rate sweep.
func BenchmarkFig3(b *testing.B) {
	bps := benchProfiles(b)
	taus := metrics.DefaultTaus()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series := experiments.SweepSchemes(bps, taus)
		_ = experiments.Fig3(series)
	}
}

// BenchmarkFig4 regenerates the counter-space comparison.
func BenchmarkFig4(b *testing.B) {
	bps := benchProfiles(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig4(bps)
	}
}

// BenchmarkFig5 regenerates the mini-Dynamo speedup grid (both schemes,
// τ ∈ {10,50,100}, all nine workloads).
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		grid, err := experiments.RunFig5(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		_ = experiments.Fig5(grid)
	}
}

// BenchmarkPhases runs the windowed-metrics extension (§6.1/§7).
func BenchmarkPhases(b *testing.B) {
	bps := benchProfiles(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.PhasesReport(bps, 50)
	}
}

// BenchmarkChaos runs the fault-injection sweep (NET under escalating soft
// fault rates; the robustness experiment).
func BenchmarkChaos(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := experiments.ChaosReport(benchScale, 50)
		if err != nil {
			b.Fatal(err)
		}
		_ = out
	}
}

// --- Component microbenchmarks ---------------------------------------------

func compressProgram(b *testing.B) *profile.Profile {
	b.Helper()
	bm, err := workload.ByName("compress")
	if err != nil {
		b.Fatal(err)
	}
	p, err := bm.Build(benchScale)
	if err != nil {
		b.Fatal(err)
	}
	pr, err := profile.Collect(p, 0)
	if err != nil {
		b.Fatal(err)
	}
	return pr
}

// BenchmarkVMInterp measures raw interpreter throughput (instructions/op
// reported via b.N scaling is not meaningful; use ns/op per full run).
func BenchmarkVMInterp(b *testing.B) {
	bm, err := workload.ByName("compress")
	if err != nil {
		b.Fatal(err)
	}
	p, err := bm.Build(benchScale)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := vm.New(p)
		if err := m.Run(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVMInterpLegacy runs the same workload on the legacy switch-based
// decoder — the reference point for the predecoded engine's speedup.
func BenchmarkVMInterpLegacy(b *testing.B) {
	bm, err := workload.ByName("compress")
	if err != nil {
		b.Fatal(err)
	}
	p, err := bm.Build(benchScale)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := vm.New(p)
		m.SetEngine(vm.EngineLegacy)
		if err := m.Run(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPathTracking measures the profiled run (VM + tracker + intern).
func BenchmarkPathTracking(b *testing.B) {
	bm, err := workload.ByName("compress")
	if err != nil {
		b.Fatal(err)
	}
	p, err := bm.Build(benchScale)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := profile.Collect(p, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNETReplay measures the abstract NET replay over a recorded
// stream — the inner loop of Figures 2-3.
func BenchmarkNETReplay(b *testing.B) {
	pr := compressProgram(b)
	hs := pr.Hot(experiments.HotFrac)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.Evaluate(pr, hs, predict.NewNET(50, pr.Paths.Head), 50)
	}
}

// BenchmarkPathProfileReplay is the path-profile analogue of NETReplay.
func BenchmarkPathProfileReplay(b *testing.B) {
	pr := compressProgram(b)
	hs := pr.Hot(experiments.HotFrac)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.Evaluate(pr, hs, predict.NewPathProfile(50), 50)
	}
}

// --- Ablations (design choices DESIGN.md calls out) -------------------------

func benchDynamo(b *testing.B, name string, mutate func(*dynamo.Config)) {
	bm, err := workload.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	p, err := bm.Build(benchScale)
	if err != nil {
		b.Fatal(err)
	}
	cfg := dynamo.DefaultConfig(dynamo.SchemeNET, 50)
	if mutate != nil {
		mutate(&cfg)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := dynamo.New(p, cfg).Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Speedup(), "speedup%")
	}
}

// BenchmarkDynamoNET is the baseline mini-Dynamo configuration (compress,
// NET, τ=50); the ablations below perturb one design choice each. Compare
// the reported speedup% metrics.
func BenchmarkDynamoNET(b *testing.B) {
	benchDynamo(b, "compress", nil)
}

// BenchmarkDynamoPathProfile swaps the selection scheme (the paper's Fig 5
// comparison).
func BenchmarkDynamoPathProfile(b *testing.B) {
	benchDynamo(b, "compress", func(c *dynamo.Config) {
		c.Scheme = dynamo.SchemePathProfile
		c.BailoutAfter = 0
	})
}

// BenchmarkDynamoNoOptimizer ablates the trace optimizer.
func BenchmarkDynamoNoOptimizer(b *testing.B) {
	benchDynamo(b, "compress", func(c *dynamo.Config) { c.DisableOptimizer = true })
}

// BenchmarkDynamoNoLinking ablates fragment linking.
func BenchmarkDynamoNoLinking(b *testing.B) {
	benchDynamo(b, "compress", func(c *dynamo.Config) { c.DisableLinking = true })
}

// BenchmarkDynamoTinyCache ablates cache capacity (forces flush thrash).
func BenchmarkDynamoTinyCache(b *testing.B) {
	benchDynamo(b, "compress", func(c *dynamo.Config) { c.MaxFragments = 8 })
}

// BenchmarkNETSingleReplay ablates NET's secondary-trace counter reset
// (primary traces only) in the abstract metrics.
func BenchmarkNETSingleReplay(b *testing.B) {
	pr := compressProgram(b)
	hs := pr.Hot(experiments.HotFrac)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt := metrics.Evaluate(pr, hs, predict.NewNETSingle(50, pr.Paths.Head), 50)
		b.ReportMetric(pt.HitRate(), "hit%")
	}
}

// BenchmarkBranchPredGShare measures the gshare hardware-predictor
// simulation over a full workload run (related-work comparison).
func BenchmarkBranchPredGShare(b *testing.B) {
	bm, err := workload.ByName("compress")
	if err != nil {
		b.Fatal(err)
	}
	p, err := bm.Build(benchScale)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := branchpred.Measure(p, branchpred.NewGShare(14), 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Accuracy(), "accuracy%")
	}
}

// BenchmarkTraceCache measures the hardware trace-cache simulation over a
// full workload run.
func BenchmarkTraceCache(b *testing.B) {
	bm, err := workload.ByName("compress")
	if err != nil {
		b.Fatal(err)
	}
	p, err := bm.Build(benchScale)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := tracecache.Measure(p, tracecache.Config{}, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(st.SuppliedPct(), "supplied%")
	}
}

// BenchmarkBoa measures the Boa edge-profile construction pipeline
// (related-work comparison).
func BenchmarkBoa(b *testing.B) {
	bm, err := workload.ByName("m88ksim")
	if err != nil {
		b.Fatal(err)
	}
	p, err := bm.Build(benchScale)
	if err != nil {
		b.Fatal(err)
	}
	pr, err := profile.Collect(p, 0)
	if err != nil {
		b.Fatal(err)
	}
	hot := pr.Hot(experiments.HotFrac)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := boa.Evaluate(p, pr, hot, 50)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.HitRate(), "hit%")
	}
}
