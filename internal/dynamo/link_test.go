package dynamo

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"netpath/internal/chaos"
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
// untouched program semantics and exact transfer accounting. The injector
// reports an abort due at every step, so the fragment loop polls before
// every fragment step.
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

func (alwaysAbortFragments) Trap(int64, int) error              { return nil }
func (alwaysAbortFragments) Next() (int64, int64)               { return math.MaxInt64, 0 }
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

// legacyRef is the legacy switch-decoder engine run to completion, one
// instruction at a time: the reference every Dynamo mode must agree with.
type legacyRef struct {
	m   *vm.Machine
	err error
	// redirects counts the branch events whose target is not the
	// fall-through, over the whole run; nativeInstrs and nativeTaken count
	// the completed steps after step from, and those among them whose
	// successor is not their fall-through.
	redirects, nativeInstrs, nativeTaken int64
}

// OnBranch implements vm.Sink.
func (r *legacyRef) OnBranch(ev vm.BranchEvent) {
	if ev.Target != ev.PC+1 {
		r.redirects++
	}
}

// runLegacy runs p on the legacy engine under an optional fault hook and
// step budget, counting native steps from step from on.
func runLegacy(p *prog.Program, maxSteps, from int64, hook vm.FaultHook) *legacyRef {
	r := &legacyRef{m: vm.New(p)}
	r.m.SetEngine(vm.EngineLegacy)
	r.m.SetSink(r)
	r.m.SetFaultHook(hook)
	for !r.m.Halted {
		if maxSteps > 0 && r.m.Steps >= maxSteps {
			r.err = vm.ErrStepLimit
			break
		}
		pc, native := r.m.PC, r.m.Steps >= from
		if r.err = r.m.Step(); r.err != nil {
			break
		}
		if native {
			r.nativeInstrs++
			if r.m.PC != pc+1 && !r.m.Halted {
				r.nativeTaken++
			}
		}
	}
	return r
}

// TestEngineMatchesLegacyVM runs each program and config through Dynamo —
// the batched interpreter, tier-1 fragments, and native execution after
// bail-out — and through the legacy engine stepped one instruction at a
// time, and requires the same registers, memory, PC and step count, the
// same fault (kind, PC and message) or step limit, Redirects equal to the
// legacy run's non-fall-through events, and NativeInstrs and
// NativeRedirects equal to its completed steps after BailStep and their
// non-fall-through successors. Chaos runs are checked against the legacy
// engine under the same injector as a fault hook. A run that neither
// faults nor traps accounts every step to exactly one mode.
func TestEngineMatchesLegacyVM(t *testing.T) {
	type tc struct {
		name string
		p    *prog.Program
		cfg  Config
		// injector builds the run's injector; the legacy engine gets a
		// second one as its fault hook.
		injector func() *chaos.Injector
		// unverified lifts the load-time verifier's gate, to reach a
		// transfer out of the program the verifier would have refused.
		unverified bool
	}
	var cases []tc
	for _, b := range workload.All() {
		p, err := b.Build(0.01)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range []Scheme{SchemeNET, SchemePathProfile} {
			for _, tau := range []int64{10, 50} {
				cases = append(cases, tc{name: fmt.Sprintf("%s/%v/%d", b.Name, scheme, tau), p: p, cfg: DefaultConfig(scheme, tau)})
			}
		}
		// The static scheme has no delay: one cell, as in Figure 5.
		cases = append(cases, tc{name: b.Name + "/Static", p: p, cfg: DefaultConfig(SchemeStatic, 0)})
		// An early bail-out check gives up on every benchmark, so most of
		// its steps run native.
		bail := DefaultConfig(SchemeNET, 50)
		bail.BailoutAfter = 300
		cases = append(cases, tc{name: b.Name + "/NET/bail", p: p, cfg: bail})
	}
	random := func(seed int64, rates chaos.Rates) func() *chaos.Injector {
		return func() *chaos.Injector { return chaos.NewRandom(seed, rates) }
	}
	trapRates := chaos.Rates{TrapPerM: 2_000}
	// Chaos runs with tier 2 dispatch published superblocks under the same
	// injection bound; when a block publishes depends on the background
	// compiler, but the machine state must not.
	tc2 := NewTier2Compiler(1, 64)
	defer tc2.Close()
	for seed := int64(0); seed < 12; seed++ {
		for _, scheme := range []Scheme{SchemeNET, SchemePathProfile} {
			cfg := DefaultConfig(scheme, 3)
			cfg.BailoutAfter = 0
			cfg.MaxFragments = 16
			clean := randprog.MustGenerate(seed, randprog.Options{})
			// Shifted switch tables send indirect transfers to addresses
			// that are not block starts or function entries: the run ends
			// in a fault, inside the interpreter, a fragment or native code.
			faulty := randprog.MustGenerate(seed, randprog.Options{})
			for i := range faulty.InitMem {
				faulty.InitMem[i].Value++
			}
			trunc := cfg
			trunc.MaxSteps = 5_000 + 1_777*seed
			bail := cfg
			bail.BailoutAfter = 20
			bailTrunc := bail
			bailTrunc.MaxSteps = trunc.MaxSteps
			tag := fmt.Sprintf("rand%d/%v", seed, scheme)
			cases = append(cases,
				tc{name: tag, p: clean, cfg: cfg},
				tc{name: tag + "/fault", p: faulty, cfg: cfg},
				tc{name: tag + "/trunc", p: clean, cfg: trunc},
				tc{name: tag + "/bail", p: clean, cfg: bail},
				tc{name: tag + "/bail/fault", p: faulty, cfg: bail},
				tc{name: tag + "/bail/trunc", p: clean, cfg: bailTrunc},
				tc{name: tag + "/soft", p: clean, cfg: cfg, injector: random(seed, softRates)},
				tc{name: tag + "/trap", p: clean, cfg: cfg, injector: random(seed, trapRates)},
				tc{name: tag + "/bail/trap", p: clean, cfg: bail, injector: random(seed, trapRates)})
		}
		t2 := DefaultConfig(SchemeNET, 3)
		t2.Tier2, t2.Tier2Threshold, t2.Tier2MinFlow = tc2, 2, 1
		clean := randprog.MustGenerate(seed, randprog.Options{})
		cases = append(cases,
			tc{name: fmt.Sprintf("rand%d/NET/tier2/soft", seed), p: clean, cfg: t2, injector: random(seed, softRates)},
			tc{name: fmt.Sprintf("rand%d/NET/tier2/trap", seed), p: clean, cfg: t2, injector: random(seed, trapRates)})
	}
	cases = append(cases, tc{name: "multiphase/NET", p: multiPhase(3, 2_000, 20), cfg: DefaultConfig(SchemeNET, 20)},
		tc{name: "multiphase/PathProfile", p: multiPhase(3, 2_000, 20), cfg: DefaultConfig(SchemePathProfile, 20)})
	// After bail-out, a return to the address past the last instruction:
	// the transfer's event precedes its fault, so it is a redirect of the
	// run but not of a completed native instruction.
	retOff := prog.NewBuilder("retoff")
	retOff.SetMemSize(4)
	retOff.SetEntry("main")
	retOff.Func("f").Ret()
	mf := retOff.Func("main")
	mf.MovI(0, 0)
	mf.Label("loop")
	mf.AddI(0, 0, 1)
	mf.BrI(isa.Lt, 0, 1_000, "loop")
	mf.Call("f")
	retBail := DefaultConfig(SchemeNET, 1_000)
	retBail.BailoutAfter = 10
	cases = append(cases, tc{name: "retoff/bail", p: retOff.MustBuild(), cfg: retBail, unverified: true})
	// A trap due exactly at the step limit never fires: the run stops
	// first, even where a fragment links into its successor at that step
	// (limits 2004 and 2011 here).
	for limit := int64(2_000); limit < 2_014; limit++ {
		cfg := DefaultConfig(SchemeNET, 5)
		cfg.MaxSteps = limit
		evs := []chaos.Event{{Step: limit, Kind: chaos.TrapOOBLoad}}
		cases = append(cases, tc{name: fmt.Sprintf("hotloop/limit%d/trap", limit), p: hotLoop(50_000), cfg: cfg,
			injector: func() *chaos.Injector { return chaos.NewSchedule(evs) }})
	}

	var faults, truncs, bails, nativeFaults, traps, nativeTraps int
	for _, c := range cases {
		cfg := c.cfg
		var hook vm.FaultHook
		if c.injector != nil {
			cfg.Chaos = c.injector()
			hook = c.injector().VMFault
		}
		sys := New(c.p, cfg)
		if c.unverified {
			sys.verifyErr = nil
		}
		res, err := sys.Run()
		from := int64(math.MaxInt64)
		if res.BailedOut {
			from = res.BailStep
		}
		ref := runLegacy(c.p, cfg.MaxSteps, from, hook)

		var f, rf *vm.Fault
		switch {
		case errors.As(ref.err, &rf):
			if !errors.As(err, &f) || f.Kind != rf.Kind || f.PC != rf.PC || f.Msg != rf.Msg || res.VMFault != rf.Msg {
				t.Errorf("%s: fault %v (Result.VMFault %q), legacy %v", c.name, err, res.VMFault, ref.err)
			}
		case ref.err != nil:
			if !errors.Is(err, ref.err) || res.VMFault != "" {
				t.Errorf("%s: err %v, legacy %v", c.name, err, ref.err)
			}
		case err != nil:
			t.Errorf("%s: err %v, legacy ran clean", c.name, err)
		}
		m := sys.Machine()
		if m.Reg != ref.m.Reg || m.PC != ref.m.PC || m.Steps != ref.m.Steps || m.Halted != ref.m.Halted || !reflect.DeepEqual(m.Mem, ref.m.Mem) {
			t.Errorf("%s: machine state diverges from legacy (pc %d/%d, steps %d/%d)", c.name, m.PC, ref.m.PC, m.Steps, ref.m.Steps)
		}
		if res.Steps != m.Steps || res.Redirects != ref.redirects {
			t.Errorf("%s: Steps %d Redirects %d, legacy %d and %d", c.name, res.Steps, res.Redirects, ref.m.Steps, ref.redirects)
		}
		if res.NativeInstrs != ref.nativeInstrs || res.NativeRedirects != ref.nativeTaken {
			t.Errorf("%s: NativeInstrs %d NativeRedirects %d, legacy %d and %d after step %d",
				c.name, res.NativeInstrs, res.NativeRedirects, ref.nativeInstrs, ref.nativeTaken, res.BailStep)
		}
		if ref.err == nil || errors.Is(ref.err, vm.ErrStepLimit) {
			if sum := res.InterpInstrs + res.FragInstrs + res.NativeInstrs; sum != res.Steps {
				t.Errorf("%s: %d interpreted + %d fragment + %d native steps, run took %d",
					c.name, res.InterpInstrs, res.FragInstrs, res.NativeInstrs, res.Steps)
			}
		}
		switch {
		case rf != nil && rf.Kind == vm.FaultInjected:
			traps++
			if res.BailedOut {
				nativeTraps++
			}
		case rf != nil:
			faults++
			if res.BailedOut {
				nativeFaults++
			}
		case ref.err != nil:
			truncs++
		}
		if res.BailedOut && res.NativeRedirects > 0 {
			bails++
		}
	}
	if faults == 0 || truncs == 0 || bails == 0 || nativeFaults == 0 || traps == 0 || nativeTraps == 0 {
		t.Errorf("corpus exercised %d faulting (%d native), %d step-limited, %d native-redirecting bail-out and %d trapped (%d native) runs, want some of each",
			faults, nativeFaults, truncs, bails, traps, nativeTraps)
	}
}
