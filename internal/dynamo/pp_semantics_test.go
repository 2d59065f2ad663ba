package dynamo

import (
	"testing"

	"netpath/internal/isa"
	"netpath/internal/prog"
)

// multiTailLoop builds a loop head with two roughly equal tails: the
// structural situation where the two schemes' fragment-exit handling
// diverges (NET treats exit targets as new heads and caches secondary
// fragments; path-profile-based selection cannot profile mid-path
// suffixes).
func multiTailLoop(n int64) *prog.Program {
	b := prog.NewBuilder("multitail")
	b.SetMemSize(64)
	b.SetMem(16, 0)
	b.SetMem(17, 10)
	m := b.Func("main")
	m.MovI(0, 0)
	m.Label("loop")
	m.RemI(1, 0, 2)
	m.AddI(1, 1, 16)
	m.Load(2, 1, 0) // alternates 0, 10
	m.BrI(isa.Lt, 2, 5, "even")
	m.AddI(3, 3, 1)
	m.AddI(3, 3, 2)
	m.Jmp("join")
	m.Label("even")
	m.AddI(4, 4, 1)
	m.AddI(4, 4, 2)
	m.Label("join")
	m.AddI(0, 0, 1)
	m.BrI(isa.Lt, 0, n, "loop")
	m.Halt()
	return b.MustBuild()
}

// TestNETCoversBothTails: with two alternating tails, NET's exit-stub
// secondary selection caches both sides and nearly all instructions run
// from the fragment cache.
func TestNETCoversBothTails(t *testing.T) {
	res, err := New(multiTailLoop(50_000), DefaultConfig(SchemeNET, 20)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.CachedFraction() < 0.95 {
		t.Errorf("NET cached fraction = %.3f, want >= 0.95 (secondary traces cover the other tail)", res.CachedFraction())
	}
	if res.Fragments < 2 {
		t.Errorf("fragments = %d, want >= 2 (one per tail region)", res.Fragments)
	}
}

// TestPPSuffixStaysInterpreted: path-profile-based selection caches one
// tail per head address; the alternating other tail diverges out of the
// fragment every second iteration and its suffix stays in the interpreter,
// uncacheable — the structural half of the paper's Figure 5 result.
func TestPPSuffixStaysInterpreted(t *testing.T) {
	cfg := DefaultConfig(SchemePathProfile, 20)
	cfg.BailoutAfter = 0
	res, err := New(multiTailLoop(50_000), cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	net, err := New(multiTailLoop(50_000), DefaultConfig(SchemeNET, 20)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.CachedFraction() >= net.CachedFraction() {
		t.Errorf("PP cached %.3f must trail NET's %.3f on a multi-tail loop",
			res.CachedFraction(), net.CachedFraction())
	}
	// Roughly half the iterations diverge; a material share of instructions
	// must remain interpreted under PP.
	if res.CachedFraction() > 0.85 {
		t.Errorf("PP cached fraction = %.3f, expected a visible interpreter residue", res.CachedFraction())
	}
	if res.Speedup() >= net.Speedup() {
		t.Errorf("PP speedup %.3f must trail NET %.3f", res.Speedup(), net.Speedup())
	}
}

// TestPPChargesProfilingWork: the path-profile scheme must charge
// per-branch and per-path profiling cycles while interpreting; NET charges
// only head counters.
func TestPPChargesProfilingWork(t *testing.T) {
	cfgPP := DefaultConfig(SchemePathProfile, 1_000_000) // never predicts: pure profiling
	cfgPP.BailoutAfter = 0
	pp, err := New(multiTailLoop(20_000), cfgPP).Run()
	if err != nil {
		t.Fatal(err)
	}
	cfgNET := DefaultConfig(SchemeNET, 1_000_000)
	cfgNET.BailoutAfter = 0
	net, err := New(multiTailLoop(20_000), cfgNET).Run()
	if err != nil {
		t.Fatal(err)
	}
	if pp.Fragments != 0 || net.Fragments != 0 {
		t.Fatal("an astronomically long delay must prevent any selection")
	}
	if pp.ProfileCycles <= net.ProfileCycles {
		t.Errorf("PP profiling cycles %.0f must exceed NET's %.0f (per-branch + per-path vs per-head)",
			pp.ProfileCycles, net.ProfileCycles)
	}
	// Both interpret everything.
	if pp.InterpInstrs != pp.Steps || net.InterpInstrs != net.Steps {
		t.Error("with no fragments, every instruction is interpreted")
	}
}

// TestPPProfileChargesPerBranch pins PathProfile's profiling charges to the
// branches it observes: a bit shift per conditional branch, a table update
// per completed path, and a signature append for an indirect jump — charged
// even when the jump faults before its event is delivered.
func TestPPProfileChargesPerBranch(t *testing.T) {
	b := prog.NewBuilder("ppcharges")
	b.SetMemSize(4)
	m := b.Func("main")
	m.MovI(0, 0)
	m.Label("loop")
	m.AddI(0, 0, 1)
	m.BrI(isa.Lt, 0, 5, "loop") // 4 taken backward (4 paths), 1 not taken
	m.MovI(1, 5)
	m.JmpInd(1) // address 5 is this jump, not a block start: faults
	m.Halt()
	p := b.MustBuild()

	res, err := New(p, DefaultConfig(SchemePathProfile, 1000)).Run()
	if err == nil || res.VMFault == "" {
		t.Fatalf("run did not fault: %v", err)
	}
	c := DefaultCosts()
	want := 5*c.BitShift + 4*c.PathTableUpdate + c.IndAppend
	if res.ProfileCycles != want || res.PathEvents != 4 {
		t.Errorf("ProfileCycles %v over %d paths, want %v over 4", res.ProfileCycles, res.PathEvents, want)
	}
}
