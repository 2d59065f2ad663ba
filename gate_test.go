// Allocation regression gate against the committed perf baseline.
//
// ns/op is too noisy to gate on shared runners, but allocs/op of the
// profiling chain is deterministic: the gate re-measures the three
// alloc-sensitive microbenchmarks from cmd/hotpath at the baseline's own
// scale and fails if any of them allocates more per op than the committed
// BENCH_hotpath.json records. Timing is never compared.
package netpath_test

import (
	"errors"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"netpath/internal/benchjson"
	"netpath/internal/dynamo"
	"netpath/internal/isa"
	"netpath/internal/path"
	"netpath/internal/profile"
	"netpath/internal/prog"
	"netpath/internal/telemetry"
	"netpath/internal/trace"
	"netpath/internal/vm"
	"netpath/internal/workload"
)

// majorMinor trims a runtime version like "go1.24.0" to "go1.24"; alloc
// behavior of maps and the runtime shifts between Go releases, so the gate
// only compares like with like.
func majorMinor(v string) string {
	parts := strings.SplitN(v, ".", 3)
	if len(parts) < 2 {
		return v
	}
	return parts[0] + "." + parts[1]
}

func TestAllocGate(t *testing.T) {
	const baseline = "BENCH_hotpath.json"
	rep, err := benchjson.ReadFile(baseline)
	if os.IsNotExist(err) {
		t.Skipf("no %s baseline; run `go run ./cmd/hotpath -bench-out %s`", baseline, baseline)
	}
	if err != nil {
		t.Fatalf("reading %s: %v", baseline, err)
	}
	if got, want := majorMinor(runtime.Version()), majorMinor(rep.GoVersion); got != want {
		t.Skipf("baseline recorded with %s, running %s; alloc counts not comparable", rep.GoVersion, runtime.Version())
	}

	b, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Build(rep.Scale)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, runs int, f func()) {
		e, ok := rep.Get(name)
		if !ok {
			t.Errorf("%s: baseline has no entry", name)
			return
		}
		got := int64(testing.AllocsPerRun(runs, f))
		// GC cycles themselves allocate a little runtime metadata that
		// MemStats.Mallocs counts, so a run whose heap is cold (frequent GC)
		// measures a hair above one whose heap is warm — with GOGC=off both
		// agree exactly. Allow 1% for that pacing jitter; integer division
		// keeps the zero- and single-digit-alloc entries exact.
		if slack := e.AllocsPerOp / 100; got > e.AllocsPerOp+slack {
			t.Errorf("%s: %d allocs/op, baseline %d — allocation regression", name, got, e.AllocsPerOp)
		} else {
			t.Logf("%s: %d allocs/op (baseline %d)", name, got, e.AllocsPerOp)
		}
	}

	// 10 runs per check: the committed baseline is a long benchmark average,
	// so the gate needs enough runs to amortize first-iteration warmup
	// allocations (lazy map growth) that a 3-run average still shows.
	check("vm_interp", 10, func() {
		m := vm.New(p)
		if err := m.Run(0); err != nil {
			t.Fatal(err)
		}
	})
	check("path_tracking", 10, func() {
		if _, err := profile.Collect(p, 0); err != nil {
			t.Fatal(err)
		}
	})

	// intern_hit replicates the cmd/hotpath micro: steady-state interner
	// hits must stay allocation-free.
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
	i := 0
	check("intern_hit", 1000, func() {
		build(i % 8)
		it.InternBytes(sig.Bytes(), 7, 6)
		i++
	})

	// telemetry_on: the full mini-Dynamo tracking loop with every telemetry
	// site live must not allocate more than the committed baseline (which in
	// turn matches telemetry_off — the sink only writes preallocated state).
	// The sink is created once, as in the benchmark: sink construction is
	// setup, not part of the tracking loop.
	sink := telemetry.Def.NewSink()
	check("telemetry_on", 1, func() {
		cfg := dynamo.DefaultConfig(dynamo.SchemeNET, 50)
		cfg.Telemetry = sink
		if _, err := dynamo.New(p, cfg).Run(); err != nil {
			t.Fatal(err)
		}
	})

	// net_replay_tier2: the full tiered run, mirroring the benchmark's shape
	// (one compiler shared across runs, ijpeg at the baseline scale). The
	// count is process-wide, so it bounds the promotion slow path AND the
	// background compiles together; the steady-state dispatch itself is
	// pinned at exactly zero by TestTier2DispatchZeroAllocGate below.
	ib, err := workload.ByName("ijpeg")
	if err != nil {
		t.Fatal(err)
	}
	ip, err := ib.Build(rep.Scale)
	if err != nil {
		t.Fatal(err)
	}
	tc := dynamo.NewTier2Compiler(1, 256)
	defer tc.Close()
	check("net_replay_tier2", 10, func() {
		cfg := dynamo.DefaultConfig(dynamo.SchemeNET, 50)
		cfg.Tier2 = tc
		cfg.Tier2Threshold = 8
		if _, err := dynamo.New(ip, cfg).Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestTier2DispatchZeroAllocGate pins the tier-2 dispatch fast path — the
// hoisted entry-guard check plus the fused micro-op loop of a published
// superblock — at exactly zero allocations per entry, independent of any
// committed baseline. Exit state parks in machine-resident storage rather
// than escaping through the handler signature; this gate is what keeps it
// that way. The matching ns/op cost is the fused_dispatch entry of
// BENCH_hotpath.json.
func TestTier2DispatchZeroAllocGate(t *testing.T) {
	b := prog.NewBuilder("gate_t2")
	b.SetMemSize(4)
	f := b.Func("main")
	f.MovI(0, 0)
	f.Label("loop")
	f.AddI(0, 0, 1)
	f.AddI(2, 2, 3)
	f.BrI(isa.Lt, 0, 1<<62, "loop")
	f.Halt()
	lp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(lp)
	for m.Steps < 2 { // prologue: MovI + fallthrough jmp
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var spec []vm.SBStep
	for i := 0; i < 3; i++ { // one full loop iteration: AddI, AddI, BrI taken
		pc := m.PC
		in := m.InstrAt(pc)
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
		spec = append(spec, vm.SBStep{In: in, PC: int32(pc), Next: int32(m.PC)})
	}
	sb, _, err := vm.CompileSuperblock(spec, lp.Len())
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if !sb.GuardsPass(m) {
			t.Fatal("entry guards failed")
		}
		x := m.RunSuperblock(sb)
		if !x.Completed {
			t.Fatalf("superblock diverged at guest %d: %v", x.Guest, x.Err)
		}
	}); n != 0 {
		t.Errorf("tier-2 dispatch path: %v allocs/op, must be 0", n)
	}
}

// TestRestoreDispatchZeroAlloc pins the warm-start promise: once Restore has
// pre-installed a profile's fragments, the steady-state dispatch loop
// allocates exactly as much as it would cold — nothing. AllocsPerRun cannot
// express "one long run" (the restore and table setup are legitimate one-time
// allocations), so the gate compares the process Mallocs delta of two warm
// runs that differ only in step budget: the extra steps must add zero
// allocations.
func TestRestoreDispatchZeroAlloc(t *testing.T) {
	b := prog.NewBuilder("gate_restore")
	b.SetMemSize(4)
	f := b.Func("main")
	f.MovI(0, 0)
	f.Label("loop")
	f.AddI(0, 0, 1)
	f.AddI(2, 2, 3)
	f.BrI(isa.Lt, 0, 1<<62, "loop")
	f.Halt()
	lp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	// Cold run collects the profile the warm runs restore from.
	coldCfg := dynamo.DefaultConfig(dynamo.SchemeNET, 50)
	coldCfg.MaxSteps = 1 << 16
	coldSys := dynamo.New(lp, coldCfg)
	if _, err := coldSys.Run(); err != nil && !errors.Is(err, vm.ErrStepLimit) {
		t.Fatal(err)
	}
	snap := coldSys.Snapshot("")

	warmMallocs := func(steps int64) uint64 {
		cfg := dynamo.DefaultConfig(dynamo.SchemeNET, 50)
		cfg.MaxSteps = steps
		sys := dynamo.New(lp, cfg)
		if err := sys.Restore(snap); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := sys.Run()
		runtime.ReadMemStats(&after)
		if err != nil && !errors.Is(err, vm.ErrStepLimit) {
			t.Fatal(err)
		}
		if res.RestoredFragments == 0 {
			t.Fatal("warm run restored no fragments; the gate is not measuring a warm dispatch")
		}
		return after.Mallocs - before.Mallocs
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	short := warmMallocs(1 << 17)
	long := warmMallocs(1 << 20)
	// Both runs pay the same fixed Run() overhead (result bookkeeping, step
	// chunking); the long run executes ~900k extra steps entirely inside
	// restored fragments. A handful of mallocs of slack absorbs runtime
	// background noise without hiding a real per-event leak.
	if long > short+16 {
		t.Errorf("restored dispatch allocated: %d mallocs for %d steps vs %d for %d steps (+%d)",
			long, int64(1<<20), short, int64(1<<17), long-short)
	} else {
		t.Logf("restored dispatch: %d vs %d mallocs (Δ=%d) across an 8× step budget", short, long, int64(long)-int64(short))
	}
}

// TestTelemetryZeroAllocGate pins the telemetry write path — counter add,
// histogram observe, gauge set — at exactly zero allocations per
// op, independent of any committed baseline. This is the hard gate behind
// the layer's zero-allocation claim; the matching ns/op cost is recorded as
// the telemetry_emit entry of BENCH_hotpath.json.
func TestTelemetryZeroAllocGate(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("gate_events_total", "gate")
	h := reg.Histogram("gate_sizes", "gate")
	g := reg.Gauge("gate_len", "gate")
	s := reg.NewSink()
	i := int64(0)
	if n := testing.AllocsPerRun(1000, func() {
		s.Inc(c)
		s.Add(c, 3)
		s.Observe(h, i&1023)
		s.Set(g, i)
		i++
	}); n != 0 {
		t.Errorf("telemetry write path: %v allocs/op, must be 0", n)
	}
}

// TestTraceSampledOutZeroAllocGate pins the disabled tracing path at exactly
// zero allocations per op. A run the sampling coin skips carries a nil
// *trace.Trace through the whole engine, and a server with tracing off holds
// nil *Store/*Flight — every method on the nil receivers must be a free
// no-op, or the "tracing off costs nothing" claim in DESIGN.md is a lie.
func TestTraceSampledOutZeroAllocGate(t *testing.T) {
	var tr *trace.Trace
	var fl *trace.Flight
	var st *trace.Store
	i := int64(0)
	if n := testing.AllocsPerRun(1000, func() {
		id := tr.Begin(trace.SpanExecute, trace.NoSpan, 0, i)
		tr.SetArg(id, 0, i)
		tr.Add(trace.SpanTraceSelect, id, 0, i, int32(i), i)
		tr.Instant(trace.SpanFragEmit, id, int32(i), i)
		tr.End(id)
		tr.EndAt(id, i)
		tr.SetErr("")
		fl.Note("tenant", trace.Record{Kind: trace.SpanExecute, DurNS: i})
		fl.Freeze("tenant", "fault", trace.ID{})
		st.Put(tr)
		if st.Get(trace.ID{}) != nil {
			t.Fatal("nil store returned a trace")
		}
		i++
	}); n != 0 {
		t.Errorf("sampled-out trace path: %v allocs/op, must be 0", n)
	}
}
