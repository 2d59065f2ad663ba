package dynamo

import (
	"fmt"
	"testing"

	"netpath/internal/isa"
	"netpath/internal/prog"
	"netpath/internal/vm"
	"netpath/internal/workload"
)

// hotLoop builds a single dominant loop: the simplest program Dynamo must
// accelerate.
func hotLoop(n int64) *prog.Program {
	b := prog.NewBuilder("hotloop")
	b.SetMemSize(8)
	m := b.Func("main")
	m.MovI(0, 0)
	m.Label("loop")
	m.MovI(1, 7) // constant seed: fodder for the trace optimizer
	m.AddI(2, 1, 3)
	m.Op3(isa.Add, 3, 3, 2)
	m.Load(4, 5, 0)
	m.Load(6, 5, 0) // redundant load
	m.AddI(0, 0, 1)
	m.BrI(isa.Lt, 0, n, "loop")
	m.Store(3, 5, 1)
	m.Halt()
	return b.MustBuild()
}

// stateEqual compares the machine end state of a Dynamo run with a plain run.
func checkSemantics(t *testing.T, p *prog.Program, cfg Config) Result {
	t.Helper()
	plain := vm.New(p)
	if err := plain.Run(0); err != nil {
		t.Fatalf("plain run: %v", err)
	}
	sys := New(p, cfg)
	res, err := sys.Run()
	if err != nil {
		t.Fatalf("dynamo run: %v", err)
	}
	dm := sys.Machine()
	if !dm.Halted {
		t.Fatal("dynamo run did not halt")
	}
	if dm.Steps != plain.Steps {
		t.Errorf("steps differ: dynamo %d vs plain %d", dm.Steps, plain.Steps)
	}
	if dm.Reg != plain.Reg {
		t.Errorf("final registers differ")
	}
	for i := range plain.Mem {
		if dm.Mem[i] != plain.Mem[i] {
			t.Fatalf("memory differs at %d: %d vs %d", i, dm.Mem[i], plain.Mem[i])
		}
	}
	return res
}

func TestSemanticsPreservedNET(t *testing.T) {
	res := checkSemantics(t, hotLoop(50_000), DefaultConfig(SchemeNET, 50))
	if res.Fragments == 0 {
		t.Error("expected at least one fragment")
	}
	if res.Speedup() <= 0 {
		t.Errorf("speedup = %.1f%%, want positive on a dominant loop", 100*res.Speedup())
	}
}

func TestSemanticsPreservedPathProfile(t *testing.T) {
	res := checkSemantics(t, hotLoop(50_000), DefaultConfig(SchemePathProfile, 50))
	if res.Fragments == 0 {
		t.Error("expected at least one fragment")
	}
}

func TestSemanticsPreservedOnWorkloads(t *testing.T) {
	for _, name := range []string{"compress", "m88ksim", "deltablue"} {
		name := name
		t.Run(name, func(t *testing.T) {
			b, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			p, err := b.Build(0.01)
			if err != nil {
				t.Fatal(err)
			}
			checkSemantics(t, p, DefaultConfig(SchemeNET, 20))
			checkSemantics(t, p, DefaultConfig(SchemePathProfile, 20))
		})
	}
}

func TestCycleAccountingConsistent(t *testing.T) {
	li, err := workload.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	flat, err := li.Build(0.05) // bails out (low-reuse) under PathProfile
	if err != nil {
		t.Fatal(err)
	}
	c := DefaultCosts()
	for _, tc := range []struct {
		p       *prog.Program
		scheme  Scheme
		bailout bool
	}{
		{hotLoop(20_000), SchemeNET, false},
		{hotLoop(20_000), SchemePathProfile, false},
		{flat, SchemePathProfile, true},
	} {
		res, err := New(tc.p, DefaultConfig(tc.scheme, 50)).Run()
		if err != nil {
			t.Fatal(err)
		}
		tag := fmt.Sprintf("%s/%v", tc.p.Name, tc.scheme)
		if res.BailedOut != tc.bailout || tc.bailout && (res.NativeInstrs == 0 || res.NativeRedirects == 0) {
			t.Fatalf("%s: bailed out %v (native %d instrs, %d redirects), want %v",
				tag, res.BailedOut, res.NativeInstrs, res.NativeRedirects, tc.bailout)
		}
		sum := res.InterpCycles + res.FragCycles + res.ProfileCycles + res.BuildCycles + res.TransCycles +
			float64(res.NativeInstrs)*c.NativeInstr + float64(res.NativeRedirects)*c.TakenPenalty
		if res.Cycles != sum {
			t.Errorf("%s: Cycles %.0f != component sum %.0f", tag, res.Cycles, sum)
		}
		if got := res.InterpInstrs + res.FragInstrs + res.NativeInstrs; got != res.Steps {
			t.Errorf("%s: instruction modes sum %d != steps %d", tag, got, res.Steps)
		}
		if want := float64(res.Steps)*c.NativeInstr + float64(res.Redirects)*c.TakenPenalty; res.NativeCycles != want || want <= 0 {
			t.Errorf("%s: NativeCycles %.0f, want %.0f", tag, res.NativeCycles, want)
		}
	}
}

func TestNETBeatsPathProfile(t *testing.T) {
	b, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Build(0.05)
	if err != nil {
		t.Fatal(err)
	}
	net, err := New(p, DefaultConfig(SchemeNET, 50)).Run()
	if err != nil {
		t.Fatal(err)
	}
	pp, err := New(p, DefaultConfig(SchemePathProfile, 50)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if net.Speedup() <= pp.Speedup() {
		t.Errorf("NET %.1f%% must beat PathProfile %.1f%% (the paper's headline)",
			100*net.Speedup(), 100*pp.Speedup())
	}
}

func TestBailoutOnFlatProgram(t *testing.T) {
	// A program with enormous path diversity and no reuse must bail out.
	b, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Build(0.3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(SchemeNET, 50)
	cfg.BailoutAfter = 20_000
	res, err := New(p, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.BailedOut {
		t.Error("gcc-like workload must bail out")
	}
	if res.NativeInstrs == 0 {
		t.Error("post-bail execution must be native")
	}
}

func TestNoBailoutOnDominantProgram(t *testing.T) {
	b, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Build(0.1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(SchemeNET, 50)
	cfg.BailoutAfter = 20_000
	res, err := New(p, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.BailedOut {
		t.Error("compress-like workload must not bail out")
	}
}

func TestFlushOnPhaseChange(t *testing.T) {
	// Two long phases with disjoint hot code; the spike heuristic should
	// flush at the transition.
	b := prog.NewBuilder("phased")
	b.SetMemSize(8)
	m := b.Func("main")
	for ph := 0; ph < 2; ph++ {
		// Each phase: an outer loop over 40 distinct inner loops.
		for j := 0; j < 40; j++ {
			lbl := "p" + string(rune('a'+ph)) + "_" + string(rune('a'+j/26)) + string(rune('a'+j%26))
			m.MovI(0, 0)
			m.Label(lbl)
			m.AddI(1, 1, 1)
			m.AddI(0, 0, 1)
			m.BrI(isa.Lt, 0, 3000, lbl)
		}
	}
	m.Halt()
	p := b.MustBuild()
	cfg := DefaultConfig(SchemeNET, 10)
	cfg.FlushWindow = 5_000
	cfg.FlushSpike = 3.0
	cfg.BailoutAfter = 0
	res, err := New(p, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Fragments < 40 {
		t.Errorf("fragments = %d, want >= 40", res.Fragments)
	}
	// The flush heuristic is best-effort; at minimum the run must stay
	// correct and cached.
	if res.CachedFraction() < 0.9 {
		t.Errorf("cached fraction = %.2f, want >= 0.9", res.CachedFraction())
	}
}

func TestCacheCapacityFlush(t *testing.T) {
	cfg := DefaultConfig(SchemeNET, 10)
	cfg.MaxFragments = 4
	cfg.FlushWindow = 0
	cfg.BailoutAfter = 0
	b, err := workload.ByName("m88ksim")
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Build(0.02)
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(p, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Flushes == 0 {
		t.Error("tiny cache must trigger capacity flushes")
	}
}

func TestAblationOptimizerOff(t *testing.T) {
	p := hotLoop(50_000)
	on, err := New(p, DefaultConfig(SchemeNET, 50)).Run()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(SchemeNET, 50)
	cfg.DisableOptimizer = true
	off, err := New(p, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if off.ElimInstrs != 0 {
		t.Error("disabled optimizer must eliminate nothing")
	}
	if on.ElimInstrs == 0 {
		t.Error("optimizer must eliminate something on this loop")
	}
	if on.Cycles >= off.Cycles {
		t.Errorf("optimizer must reduce cycles: %.0f vs %.0f", on.Cycles, off.Cycles)
	}
}

func TestAblationLinkingOff(t *testing.T) {
	p := hotLoop(50_000)
	on, err := New(p, DefaultConfig(SchemeNET, 50)).Run()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(SchemeNET, 50)
	cfg.DisableLinking = true
	off, err := New(p, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if off.LinkedJumps != 0 {
		t.Error("disabled linking must produce no linked jumps")
	}
	if on.LinkedJumps == 0 {
		t.Error("linking must occur on a hot loop")
	}
	if on.Cycles >= off.Cycles {
		t.Errorf("linking must reduce cycles: %.0f vs %.0f", on.Cycles, off.Cycles)
	}
}

func TestDeterministicRuns(t *testing.T) {
	p := hotLoop(30_000)
	r1, err := New(p, DefaultConfig(SchemeNET, 50)).Run()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := New(p, DefaultConfig(SchemeNET, 50)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || r1.Fragments != r2.Fragments || r1.Steps != r2.Steps {
		t.Error("runs must be deterministic")
	}
}

func TestSchemeString(t *testing.T) {
	if SchemeNET.String() != "NET" || SchemePathProfile.String() != "PathProfile" {
		t.Error("scheme names wrong")
	}
}

func TestResultString(t *testing.T) {
	res, err := New(hotLoop(10_000), DefaultConfig(SchemeNET, 50)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if s := res.String(); s == "" {
		t.Error("empty result string")
	}
}
