package dynamo

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"netpath/internal/isa"
	"netpath/internal/prog"
	"netpath/internal/randprog"
	"netpath/internal/vm"
	"netpath/internal/workload"
)

// transIdentity checks that TransCycles decomposes exactly into its four
// sources — every fragment entry, linked jump, exit, and flush accounted at
// its configured cost, whichever stepper executed it.
func transIdentity(t *testing.T, tag string, res Result, c CostModel) {
	t.Helper()
	want := c.FragEnter*float64(res.FragEnters) +
		c.LinkedJump*float64(res.LinkedJumps) +
		c.FragExit*float64(res.FragExits) +
		c.FlushCost*float64(res.Flushes)
	if diff := math.Abs(res.TransCycles - want); diff > 1e-6*(1+math.Abs(want)) {
		t.Errorf("%s: TransCycles %.2f != %.2f (enters %d, links %d, exits %d, flushes %d)",
			tag, res.TransCycles, want, res.FragEnters, res.LinkedJumps, res.FragExits, res.Flushes)
	}
}

// multiPhase builds `loops` sequential counted loops, repeated `outer`
// times: each loop becomes its own fragment, and control hops between them.
func multiPhase(loops int, iters, outer int64) *prog.Program {
	b := prog.NewBuilder("multiphase")
	b.SetMemSize(8)
	m := b.Func("main")
	m.MovI(7, 0)
	m.Label("outer")
	for j := 0; j < loops; j++ {
		lbl := fmt.Sprintf("l%d", j)
		m.MovI(0, 0)
		m.Label(lbl)
		m.AddI(1, 1, 1)
		m.AddI(0, 0, 1)
		m.BrI(isa.Lt, 0, iters, lbl)
	}
	m.AddI(7, 7, 1)
	m.BrI(isa.Lt, 7, outer, "outer")
	m.Halt()
	return b.MustBuild()
}

// rareArmLoop builds a dominant loop with a branch arm taken once every 16
// iterations: the fragment records the common arm, so the rare iterations
// diverge mid-trace — a guaranteed source of early exits.
func rareArmLoop(n int64) *prog.Program {
	b := prog.NewBuilder("rarearm")
	b.SetMemSize(8)
	m := b.Func("main")
	m.MovI(0, 0)
	m.Label("loop")
	m.AndI(2, 0, 15)
	m.BrI(isa.Eq, 2, 0, "rare")
	m.AddI(1, 1, 1) // common arm
	m.Jmp("join")
	m.Label("rare")
	m.AddI(1, 1, 100)
	m.Label("join")
	m.AddI(0, 0, 1)
	m.BrI(isa.Lt, 0, n, "loop")
	m.Store(1, 5, 1)
	m.Halt()
	return b.MustBuild()
}

// TestLinkedTransferCompletionAndEarlyExit drives a dominant loop whose
// fragment links to itself: the common iterations are completion exits
// taken as linked jumps, and the rare branch arm diverges mid-trace as an
// early exit. Both boundaries must land with the accounting identity intact.
func TestLinkedTransferCompletionAndEarlyExit(t *testing.T) {
	cfg := DefaultConfig(SchemeNET, 50)
	p := rareArmLoop(50_000)
	sys := New(p, cfg)
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.LinkedJumps == 0 {
		t.Fatal("dominant loop must take linked jumps")
	}
	transIdentity(t, "hotloop", res, DefaultCosts())

	var completions, earlyExits, enters int64
	for _, fr := range resident(sys) {
		completions += fr.Completions
		earlyExits += fr.EarlyExits
		enters += fr.Enters
	}
	if completions == 0 {
		t.Error("no fragment completion observed")
	}
	if earlyExits == 0 {
		t.Error("no fragment early exit observed (the rare arm must diverge mid-trace)")
	}
	// Every fragment entry is either an interpreter-side enter or a linked
	// jump; the per-fragment counters must agree with the run totals (no
	// flush happened, so the cache still holds every fragment).
	if res.Flushes == 0 && enters != res.FragEnters+res.LinkedJumps {
		t.Errorf("fragment Enters %d != FragEnters %d + LinkedJumps %d",
			enters, res.FragEnters, res.LinkedJumps)
	}
}

// TestLinkingAblationContrast pins the linked-vs-exit accounting: with
// linking disabled every inter-fragment transfer pays the exit stub, with
// it enabled the hot transfers become linked jumps — same program, same
// semantics, same identity.
func TestLinkingAblationContrast(t *testing.T) {
	p := multiPhase(3, 2_000, 20)
	on := DefaultConfig(SchemeNET, 20)
	off := DefaultConfig(SchemeNET, 20)
	off.DisableLinking = true

	resOn := checkSemantics(t, p, on)
	resOff := checkSemantics(t, p, off)
	transIdentity(t, "link-on", resOn, DefaultCosts())
	transIdentity(t, "link-off", resOff, DefaultCosts())
	if resOn.LinkedJumps == 0 {
		t.Error("linking on: no linked jumps on a loop nest")
	}
	if resOff.LinkedJumps != 0 {
		t.Error("linking off: linked jumps must be zero")
	}
	if resOff.FragExits <= resOn.FragExits {
		t.Errorf("linking off must exit more: off %d vs on %d", resOff.FragExits, resOn.FragExits)
	}
}

// TestDemotionAfterAbortLandsInterp injects a fragment abort on every
// fragment step: each entered fragment aborts immediately, is demoted after
// DemoteAfterAborts, and execution must land back in the interpreter with
// untouched program semantics and exact transfer accounting. This exercises
// the chaos slow-path stepper (the fast loop never sees an injector).
func TestDemotionAfterAbortLandsInterp(t *testing.T) {
	cfg := DefaultConfig(SchemeNET, 20)
	cfg.Chaos = alwaysAbortFragments{}
	p := hotLoop(30_000)

	res := checkSemantics(t, p, cfg)
	if res.FragAborts == 0 {
		t.Fatal("injector never fired")
	}
	if res.Demotions == 0 {
		t.Error("persistent aborts must demote the fragment")
	}
	if res.FragInstrs != 0 {
		t.Errorf("every fragment entry aborts before executing, yet FragInstrs = %d", res.FragInstrs)
	}
	transIdentity(t, "demotion", res, DefaultCosts())
}

// alwaysAbortFragments aborts every fragment execution and nothing else.
type alwaysAbortFragments struct{}

func (alwaysAbortFragments) AbortRecording(int64) bool          { return false }
func (alwaysAbortFragments) AbortFragment(int64) bool           { return true }
func (alwaysAbortFragments) CorruptCounter(int64) (int64, bool) { return 0, false }
func (alwaysAbortFragments) SpikeSelect(int64) bool             { return false }

// TestCacheEvictionFlushKeepsIdentity forces capacity flushes while linked
// fragments are executing: a flush empties the cache mid-run, so the next
// fragment boundary must take the exit stub (not a stale link) and the
// TransCycles identity must still hold flush costs included.
func TestCacheEvictionFlushKeepsIdentity(t *testing.T) {
	cfg := DefaultConfig(SchemeNET, 10)
	cfg.MaxFragments = 2
	cfg.FlushWindow = 0
	cfg.BailoutAfter = 0
	p := multiPhase(4, 2_000, 10)

	res := checkSemantics(t, p, cfg)
	if res.Flushes == 0 {
		t.Fatal("capacity 2 with 4 hot loops must flush")
	}
	if res.LinkedJumps == 0 {
		t.Error("linking must still occur between flushes")
	}
	transIdentity(t, "eviction", res, DefaultCosts())
}

// TestFragmentSteppersEquivalent runs each program and config on the
// batched loops (vm.RunToYield for the interpreter, vm.RunTrace for
// fragments) and on the per-step steppers, which a no-op fault hook forces
// without perturbing execution. The whole Result — every counter and every
// cycle sum — and the final machine state must match exactly, on clean,
// faulting and step-limited runs.
func TestFragmentSteppersEquivalent(t *testing.T) {
	type tc struct {
		name string
		p    *prog.Program
		cfg  Config
	}
	var cases []tc
	for _, b := range workload.All() {
		p, err := b.Build(0.01)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range []Scheme{SchemeNET, SchemePathProfile} {
			for _, tau := range []int64{10, 50} {
				cases = append(cases, tc{fmt.Sprintf("%s/%v/%d", b.Name, scheme, tau), p, DefaultConfig(scheme, tau)})
			}
		}
		// The static scheme has no delay: one cell, as in Figure 5.
		cases = append(cases, tc{b.Name + "/Static", p, DefaultConfig(SchemeStatic, 0)})
	}
	for seed := int64(0); seed < 12; seed++ {
		for _, scheme := range []Scheme{SchemeNET, SchemePathProfile} {
			cfg := DefaultConfig(scheme, 3)
			cfg.BailoutAfter = 0
			cfg.MaxFragments = 16
			clean := randprog.MustGenerate(seed, randprog.Options{})
			cases = append(cases, tc{fmt.Sprintf("rand%d/%v", seed, scheme), clean, cfg})
			// Shifted switch tables send indirect transfers to addresses
			// that are not block starts or function entries: the run ends
			// in a fault, inside the interpreter or a fragment.
			faulty := randprog.MustGenerate(seed, randprog.Options{})
			for i := range faulty.InitMem {
				faulty.InitMem[i].Value++
			}
			cases = append(cases, tc{fmt.Sprintf("rand%d/%v/fault", seed, scheme), faulty, cfg})
			trunc := cfg
			trunc.MaxSteps = 5_000 + 1_777*seed
			cases = append(cases, tc{fmt.Sprintf("rand%d/%v/trunc", seed, scheme), clean, trunc})
		}
	}
	cases = append(cases, tc{"multiphase/NET", multiPhase(3, 2_000, 20), DefaultConfig(SchemeNET, 20)},
		tc{"multiphase/PathProfile", multiPhase(3, 2_000, 20), DefaultConfig(SchemePathProfile, 20)})

	var faults, truncs int
	for _, c := range cases {
		fast := New(c.p, c.cfg)
		resFast, errFast := fast.Run()
		slow := New(c.p, c.cfg)
		slow.Machine().SetFaultHook(func(*vm.Machine) error { return nil })
		resSlow, errSlow := slow.Run()

		if fmt.Sprint(errFast) != fmt.Sprint(errSlow) {
			t.Errorf("%s: batched err %v, per-step err %v", c.name, errFast, errSlow)
		}
		if !reflect.DeepEqual(resFast, resSlow) {
			t.Errorf("%s: results diverge:\nbatched  %+v\nper-step %+v", c.name, resFast, resSlow)
		}
		fm, sm := fast.Machine(), slow.Machine()
		if fm.Reg != sm.Reg || fm.PC != sm.PC || fm.Steps != sm.Steps || !reflect.DeepEqual(fm.Mem, sm.Mem) {
			t.Errorf("%s: machine state diverges (pc %d/%d, steps %d/%d)", c.name, fm.PC, sm.PC, fm.Steps, sm.Steps)
		}
		switch {
		case resFast.VMFault != "":
			faults++
		case errors.Is(errFast, vm.ErrStepLimit):
			truncs++
		}
	}
	if faults == 0 || truncs == 0 {
		t.Errorf("corpus exercised %d faulting and %d step-limited runs, want some of each", faults, truncs)
	}
}
