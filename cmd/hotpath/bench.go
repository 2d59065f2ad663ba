package main

import (
	"fmt"
	"os"
	"runtime"
	"testing"

	"netpath/internal/benchjson"
	"netpath/internal/dynamo"
	"netpath/internal/experiments"
	"netpath/internal/isa"
	"netpath/internal/metrics"
	"netpath/internal/par"
	"netpath/internal/path"
	"netpath/internal/predict"
	"netpath/internal/profile"
	"netpath/internal/prog"
	"netpath/internal/staticpred"
	"netpath/internal/telemetry"
	"netpath/internal/vm"
	"netpath/internal/workload"
)

// runBenchSuite measures the experiment pipeline and its hot loops and
// writes the machine-readable baseline (see internal/benchjson). Pipeline
// stages are measured with the worker pool pinned to 1, and again at the
// configured width when the machine can actually run that wide — the
// parallel entry and its speedup metric are recorded only when
// min(workers, GOMAXPROCS) > 1, so a single-core runner never claims a
// parallel "speedup" it cannot have. The microbenchmarks pin the
// allocation budget of the profiling chain (intern_hit must stay at
// 0 allocs/op); gate_test.go diffs those counts against the committed
// baseline.
func runBenchSuite(scale float64, out string) error {
	rep := benchjson.NewReport(scale, par.Workers())

	// Effective parallel width: a pool wider than GOMAXPROCS cannot run
	// concurrently, so on a single-core runner the "parallel" pass would
	// just re-measure the serial stage plus scheduling noise and report a
	// bogus sub-1.0 "speedup". Measure and claim parallelism only when the
	// machine can actually deliver it.
	width := par.Workers()
	if mp := runtime.GOMAXPROCS(0); mp < width {
		width = mp
	}

	// Pipeline stages, serial then (when width > 1) parallel.
	stage := func(name string, f func(b *testing.B)) {
		old := par.SetWorkers(1)
		serial := testing.Benchmark(f)
		par.SetWorkers(old)

		es := benchjson.FromResult(name+"_serial", serial)
		rep.Add(es)
		if width <= 1 {
			fmt.Fprintf(os.Stderr, "bench %-16s serial %12.0f ns/op   (parallel skipped: width 1)\n",
				name, es.NsPerOp)
			return
		}
		parallel := testing.Benchmark(f)
		ep := benchjson.FromResult(name+"_parallel", parallel)
		ep.Metrics = map[string]float64{"workers": float64(width)}
		if ep.NsPerOp > 0 {
			ep.Metrics["speedup_vs_serial"] = es.NsPerOp / ep.NsPerOp
		}
		rep.Add(ep)
		fmt.Fprintf(os.Stderr, "bench %-16s serial %12.0f ns/op   parallel %12.0f ns/op  (x%.2f)\n",
			name, es.NsPerOp, ep.NsPerOp, es.NsPerOp/ep.NsPerOp)
	}

	stage("collect", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.CollectAll(scale); err != nil {
				b.Fatal(err)
			}
		}
	})

	bps, err := experiments.CollectAll(scale)
	if err != nil {
		return err
	}
	taus := metrics.DefaultTaus()
	stage("sweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			series := experiments.SweepSchemes(bps, taus)
			if len(series) == 0 {
				b.Fatal("empty sweep")
			}
		}
	})
	stage("fig5", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.RunFig5(scale); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Hot-loop microbenchmarks (single benchmark program, no pool).
	bm, err := workload.ByName("compress")
	if err != nil {
		return err
	}
	p, err := bm.Build(scale)
	if err != nil {
		return err
	}
	micro := func(name string, f func(b *testing.B)) {
		e := benchjson.FromResult(name, testing.Benchmark(f))
		rep.Add(e)
		fmt.Fprintf(os.Stderr, "bench %-16s %12.0f ns/op  %6d allocs/op\n", name, e.NsPerOp, e.AllocsPerOp)
	}
	micro("vm_interp", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := vm.New(p)
			if err := m.Run(0); err != nil {
				b.Fatal(err)
			}
		}
	})
	micro("vm_interp_legacy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := vm.New(p)
			m.SetEngine(vm.EngineLegacy)
			if err := m.Run(0); err != nil {
				b.Fatal(err)
			}
		}
	})
	micro("path_tracking", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := profile.Collect(p, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	pr, err := profile.Collect(p, 0)
	if err != nil {
		return err
	}
	hs := pr.Hot(experiments.HotFrac)
	micro("net_replay", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			metrics.Evaluate(pr, hs, predict.NewNET(50, pr.Paths.Head), 50)
		}
	})
	micro("static_predict", func(b *testing.B) {
		// The static scheme's whole analysis cost: CFG construction, loop
		// maps, heuristic walks, and interner matching — what a load-time
		// translator would pay once per program.
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sp, err := staticpred.Predict(pr)
			if err != nil {
				b.Fatal(err)
			}
			if sp.PredictedCount() == 0 {
				b.Fatal("static predictor matched nothing")
			}
		}
	})
	micro("intern_hit", func(b *testing.B) {
		it := path.NewInterner()
		var sig path.SigBuilder
		build := func(bits int) {
			sig.Reset(7)
			for j := 0; j < 6; j++ {
				sig.CondBit(bits&(1<<j) != 0)
			}
		}
		for v := 0; v < 8; v++ {
			build(v)
			it.Intern(sig.Key(), 7, 6)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			build(i % 8)
			it.InternBytes(sig.Bytes(), 7, 6)
		}
	})
	micro("telemetry_emit", func(b *testing.B) {
		// The raw hot-path write: counter add + histogram observe. Must
		// report 0 allocs/op; gate_test.go re-checks it as a hard zero
		// independent of this baseline.
		reg := telemetry.NewRegistry()
		c := reg.Counter("bench_events_total", "bench")
		h := reg.Histogram("bench_sizes", "bench")
		s := reg.NewSink()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Inc(c)
			s.Observe(h, int64(i&1023))
		}
	})

	// Tier pair: the same full mini-Dynamo NET run (τ=50) with and without
	// the background superblock compiler, on ijpeg — the suite's dominant-
	// inner-path workload (the paper's 93.3% hot flow), where tier 2's
	// fused superblocks cover the most steps. One compile worker: the
	// baseline host is single-core, so the worker time-slices against the
	// guest and extra workers only add scheduling churn. The tier-2 entry's
	// speedup metric is the headline number for the tiered-execution work;
	// its allocs/op is gated (promotion is the only allocating tier-2
	// mutator path, entered once per threshold crossing).
	tbm, err := workload.ByName("ijpeg")
	if err != nil {
		return err
	}
	tp, err := tbm.Build(scale)
	if err != nil {
		return err
	}
	t2c := dynamo.NewTier2Compiler(1, 256)
	defer t2c.Close()
	tierRun := func(b *testing.B, tc *dynamo.Tier2Compiler) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg := dynamo.DefaultConfig(dynamo.SchemeNET, 50)
			cfg.Tier2 = tc
			cfg.Tier2Threshold = 8
			if _, err := dynamo.New(tp, cfg).Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	t1e := benchjson.FromResult("net_replay_tier1",
		testing.Benchmark(func(b *testing.B) { tierRun(b, nil) }))
	rep.Add(t1e)
	fmt.Fprintf(os.Stderr, "bench %-16s %12.0f ns/op  %6d allocs/op\n", t1e.Name, t1e.NsPerOp, t1e.AllocsPerOp)
	t2e := benchjson.FromResult("net_replay_tier2",
		testing.Benchmark(func(b *testing.B) { tierRun(b, t2c) }))
	if t2e.NsPerOp > 0 {
		t2e.Metrics = map[string]float64{"speedup_vs_tier1": t1e.NsPerOp / t2e.NsPerOp}
	}
	rep.Add(t2e)
	fmt.Fprintf(os.Stderr, "bench %-16s %12.0f ns/op  %6d allocs/op  (x%.2f vs tier1)\n",
		t2e.Name, t2e.NsPerOp, t2e.AllocsPerOp, t2e.Metrics["speedup_vs_tier1"])

	micro("compile_queue", func(b *testing.B) {
		// Promotion-to-publication round trip: a tiny hot loop is promoted on
		// its first completion; the op under measurement is the enqueue, the
		// background compile, and the atomic publication becoming visible.
		lp := buildBenchLoop()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tc := dynamo.NewTier2Compiler(1, 4)
			cfg := dynamo.DefaultConfig(dynamo.SchemeNET, 5)
			cfg.Tier2 = tc
			cfg.Tier2Threshold = 1
			cfg.MaxSteps = 2000
			_, _ = dynamo.New(lp, cfg).Run() // stops on the step limit after promoting
			for tc.Compiled()+tc.Rejected() < 1 {
				runtime.Gosched()
			}
			tc.Close()
		}
	})
	micro("fused_dispatch", func(b *testing.B) {
		// One warmed superblock entry: entry-guard check plus the fused host
		// micro-op loop. This is the tier-2 inner loop the 0-alloc gate pins.
		lp := buildBenchLoop()
		m := vm.New(lp)
		for m.Steps < 2 { // past the prologue, at the loop head
			if err := m.Step(); err != nil {
				b.Fatal(err)
			}
		}
		var spec []vm.SBStep
		for len(spec) < 3 { // AddI ; AddI ; BrI (taken)
			pc := m.PC
			in := m.InstrAt(pc)
			if err := m.Step(); err != nil {
				b.Fatal(err)
			}
			spec = append(spec, vm.SBStep{In: in, PC: int32(pc), Next: int32(m.PC)})
		}
		sb, _, err := vm.CompileSuperblock(spec, lp.Len())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !sb.GuardsPass(m) {
				b.Fatal("entry guards failed")
			}
			if x := m.RunSuperblock(sb); !x.Completed {
				b.Fatal("superblock did not complete")
			}
		}
	})

	// Telemetry overhead pair: the same mini-Dynamo run with the sink off and
	// on. The committed ns/op pair documents the enabled-path cost (the
	// acceptance bar is <= 5% overhead); allocs/op must be identical.
	dynRun := func(b *testing.B, sink *telemetry.Sink) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg := dynamo.DefaultConfig(dynamo.SchemeNET, 50)
			cfg.Telemetry = sink
			if _, err := dynamo.New(p, cfg).Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	off := benchjson.FromResult("telemetry_off",
		testing.Benchmark(func(b *testing.B) { dynRun(b, nil) }))
	rep.Add(off)
	fmt.Fprintf(os.Stderr, "bench %-16s %12.0f ns/op  %6d allocs/op\n", off.Name, off.NsPerOp, off.AllocsPerOp)
	on := benchjson.FromResult("telemetry_on",
		testing.Benchmark(func(b *testing.B) { dynRun(b, telemetry.Def.NewSink()) }))
	if off.NsPerOp > 0 {
		on.Metrics = map[string]float64{"overhead_vs_off": on.NsPerOp/off.NsPerOp - 1}
	}
	rep.Add(on)
	fmt.Fprintf(os.Stderr, "bench %-16s %12.0f ns/op  %6d allocs/op  (%+.1f%% vs off)\n",
		on.Name, on.NsPerOp, on.AllocsPerOp, 100*on.Metrics["overhead_vs_off"])

	// Time-to-peak pair per benchmark: guest steps until the windowed cache
	// coverage reaches 90% of the cold run's steady state, cold (empty cache)
	// vs warm (restored from the cold run's profile snapshot). One run each —
	// the measurement is a step count on a deterministic guest, not a timing,
	// so Iterations is honestly 1 and ns/op is meaningless here.
	ttp, err := experiments.RunTimeToPeak(nil, scale, 50)
	if err != nil {
		return err
	}
	for _, r := range ttp {
		rep.Add(benchjson.Entry{
			Name: "time_to_peak_cold_" + r.Bench, Iterations: 1,
			Metrics: map[string]float64{
				"steps_to_peak":   float64(r.ColdSteps),
				"steady_coverage": r.SteadyCov,
			},
		})
		rep.Add(benchjson.Entry{
			Name: "time_to_peak_warm_" + r.Bench, Iterations: 1,
			Metrics: map[string]float64{
				"steps_to_peak":   float64(r.WarmSteps),
				"steady_coverage": r.SteadyCov,
				"ratio_vs_cold":   r.Ratio,
			},
		})
		fmt.Fprintf(os.Stderr, "bench time_to_peak %-10s cold %10d steps   warm %10d steps  (x%.3f, %d frags restored)\n",
			r.Bench, r.ColdSteps, r.WarmSteps, r.Ratio, r.Restored)
	}

	if err := benchjson.WriteFile(out, rep); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d benchmark entries to %s\n", len(rep.Entries), out)
	return nil
}

// buildBenchLoop is a counting loop with two ALU ops per iteration — the
// minimal tier-2 target used by the compile_queue and fused_dispatch
// micros. The trip count is effectively unbounded so the dispatch micro can
// re-enter its superblock b.N times without the loop ever exiting.
func buildBenchLoop() *prog.Program {
	b := prog.NewBuilder("benchloop")
	b.SetMemSize(4)
	f := b.Func("main")
	f.MovI(0, 0)
	f.Label("loop")
	f.AddI(0, 0, 1)
	f.AddI(2, 2, 3)
	f.BrI(isa.Lt, 0, 1<<62, "loop")
	f.Halt()
	return b.MustBuild()
}
