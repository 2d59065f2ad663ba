package dynamo

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"netpath/internal/chaos"
	"netpath/internal/isa"
	"netpath/internal/prog"
	"netpath/internal/randprog"
	"netpath/internal/telemetry"
	"netpath/internal/vm"
)

// waitTier2 blocks until the compiler has settled at least want jobs
// (compiled or rejected) and its queue is empty. Tests use it between a
// warm-up run and a continuation run to make asynchronous publication
// deterministic.
func waitTier2(t *testing.T, tc *Tier2Compiler, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for tc.Compiled()+tc.Rejected() < want || tc.Depth() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("tier-2 compiler did not settle: compiled=%d rejected=%d depth=%d want>=%d",
				tc.Compiled(), tc.Rejected(), tc.Depth(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkParity compares a System's final architectural state against a plain
// VM reference. This is the tier-2 contract: no matter what the background
// compiler published or when, the guest-visible state is byte-identical.
func checkParity(t *testing.T, label string, sys *System, ref *vm.Machine) {
	t.Helper()
	m := sys.Machine()
	if m.Steps != ref.Steps {
		t.Errorf("%s: steps %d, plain VM %d", label, m.Steps, ref.Steps)
	}
	if m.PC != ref.PC || m.Halted != ref.Halted {
		t.Errorf("%s: PC/Halted (%d,%v), plain VM (%d,%v)", label, m.PC, m.Halted, ref.PC, ref.Halted)
	}
	if m.Reg != ref.Reg {
		t.Errorf("%s: final registers diverge from plain VM", label)
	}
	for a := range ref.Mem {
		if m.Mem[a] != ref.Mem[a] {
			t.Errorf("%s: Mem[%d] = %d, plain VM %d", label, a, m.Mem[a], ref.Mem[a])
			break
		}
	}
}

// buildHotLoop is a tight counting loop with a store per iteration: the
// canonical tier-2 target (one fragment, immediately promoted, superblock
// entered on nearly every iteration once published).
func buildHotLoop(t *testing.T, n int64) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("t2loop")
	b.SetMemSize(8)
	f := b.Func("main")
	f.MovI(0, 0)
	f.MovI(2, 0)
	f.Label("loop")
	f.AddI(0, 0, 1)
	f.AddI(2, 2, 3)
	f.Store(2, 1, 4)
	f.BrI(isa.Lt, 0, n, "loop")
	f.Store(2, 1, 0)
	f.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

// buildPhaseGuard nests a hot inner loop inside an outer loop that flips a
// phase register the inner body only reads. The inner trace's phase branch
// is therefore hoistable to a superblock entry guard — and during opposite
// outer iterations that entry guard fails on every single inner iteration,
// which is exactly the storm the deoptimizer must tear down rather than
// burning entry checks forever.
func buildPhaseGuard(t *testing.T, outer, inner int64) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("t2phase")
	b.SetMemSize(8)
	f := b.Func("main")
	f.MovI(0, 0)
	f.MovI(3, 0)
	f.Label("outer")
	f.AndI(5, 0, 1) // phase = outer parity; never written by the inner body
	f.MovI(6, 0)
	f.Label("inner")
	f.BrI(isa.Eq, 5, 0, "skip")
	f.AddI(3, 3, 3) // odd-phase arm
	f.Label("skip")
	f.AddI(6, 6, 1)
	f.BrI(isa.Lt, 6, inner, "inner")
	f.AddI(0, 0, 1)
	f.BrI(isa.Lt, 0, outer, "outer")
	f.Store(3, 4, 0) // r4 is never written: address 0
	f.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

// runPlain executes p on a plain VM to completion (or fault) and returns it.
func runPlain(t *testing.T, p *prog.Program) (*vm.Machine, error) {
	t.Helper()
	ref := vm.New(p)
	err := ref.Run(0)
	return ref, err
}

// TestTier2DeterministicDispatch pins the publication protocol end to end
// with no timing dependence: a warm-up run (bounded by MaxSteps) promotes
// the hot loop's fragment, the test waits for the background worker to
// publish, and the continuation run must pick the superblock up at its next
// dispatch — T2Enters strictly positive — while finishing with exactly the
// plain VM's architectural state.
func TestTier2DeterministicDispatch(t *testing.T) {
	p := buildHotLoop(t, 50_000)
	ref, refErr := runPlain(t, p)
	if refErr != nil {
		t.Fatalf("plain run: %v", refErr)
	}

	tc := NewTier2Compiler(1, 16)
	defer tc.Close()
	cfg := DefaultConfig(SchemeNET, 5)
	cfg.Tier2 = tc
	cfg.Tier2Threshold = 1
	cfg.MaxSteps = 2000
	sys := New(p, cfg)

	if _, err := sys.Run(); !errors.Is(err, vm.ErrStepLimit) {
		t.Fatalf("warm-up run: err = %v, want step limit", err)
	}
	waitTier2(t, tc, 1)
	if tc.Compiled() == 0 {
		t.Fatalf("warm-up promoted but nothing compiled (rejected=%d)", tc.Rejected())
	}

	sys.cfg.MaxSteps = 0
	res, err := sys.Run()
	if err != nil {
		t.Fatalf("continuation run: %v", err)
	}
	if res.T2Promotions == 0 {
		t.Error("T2Promotions = 0, want > 0")
	}
	if res.T2Enters == 0 {
		t.Error("T2Enters = 0: published superblock never dispatched")
	}
	if res.T2Instrs == 0 {
		t.Error("T2Instrs = 0, want > 0")
	}
	checkParity(t, "hot loop", sys, ref)
	if got := res.InterpInstrs + res.FragInstrs + res.NativeInstrs; got != res.Steps {
		t.Errorf("instruction modes %d+%d+%d != steps %d",
			res.InterpInstrs, res.FragInstrs, res.NativeInstrs, res.Steps)
	}
}

// TestTier2FaultEquivalence: a guest that eventually faults inside a
// published superblock must end the run with the same fault text, at the
// same step, with the same machine state as plain interpretation — the
// superblock's divergence replay is responsible for delivering exact traps.
func TestTier2FaultEquivalence(t *testing.T) {
	b := prog.NewBuilder("t2fault")
	b.SetMemSize(600)
	f := b.Func("main")
	f.MovI(0, 0)
	f.Label("loop")
	f.Load(1, 0, 0) // faults once r0 reaches the memory size
	f.AddI(2, 2, 1)
	f.AddI(0, 0, 1)
	f.BrI(isa.Lt, 0, 1_000_000, "loop")
	f.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}

	ref, refErr := runPlain(t, p)
	if refErr == nil {
		t.Fatal("reference run did not fault")
	}

	tc := NewTier2Compiler(1, 16)
	defer tc.Close()
	cfg := DefaultConfig(SchemeNET, 5)
	cfg.Tier2 = tc
	cfg.Tier2Threshold = 1
	cfg.MaxSteps = 1500
	sys := New(p, cfg)
	if _, err := sys.Run(); !errors.Is(err, vm.ErrStepLimit) {
		t.Fatalf("warm-up run: err = %v, want step limit", err)
	}
	waitTier2(t, tc, 1)

	sys.cfg.MaxSteps = 0
	res, err := sys.Run()
	if err == nil {
		t.Fatal("tier-2 run did not fault")
	}
	if !strings.Contains(err.Error(), refErr.Error()) {
		t.Errorf("fault %q, plain VM %q", err, refErr)
	}
	if res.VMFault != refErr.Error() {
		t.Errorf("Result.VMFault = %q, want %q", res.VMFault, refErr.Error())
	}
	if res.T2Enters == 0 {
		t.Error("T2Enters = 0: fault path never went through tier 2")
	}
	checkParity(t, "fault", sys, ref)
}

// TestTier2DeoptStorm drives promote → publish → storm → deopt cycles: the
// phase register flips every outer iteration, so the inner loop's published
// superblock — whose phase branch was hoisted to an entry guard — fails its
// entry check on every inner iteration of the wrong phase. The shortfall
// heuristic must tear such blocks down (T2Deopts > 0), the queue must stay
// bounded, nothing may panic, and the final state must still match plain
// interpretation exactly.
func TestTier2DeoptStorm(t *testing.T) {
	p := buildPhaseGuard(t, 400, 500)
	ref, refErr := runPlain(t, p)
	if refErr != nil {
		t.Fatalf("plain run: %v", refErr)
	}

	const qcap = 8
	tc := NewTier2Compiler(1, qcap)
	defer tc.Close()
	cfg := DefaultConfig(SchemeNET, 5)
	cfg.Tier2 = tc
	cfg.Tier2Threshold = 1
	cfg.MaxSteps = 1500 // stop inside the first (even-phase) outer iteration
	sys := New(p, cfg)
	if _, err := sys.Run(); !errors.Is(err, vm.ErrStepLimit) {
		t.Fatalf("warm-up run: err = %v, want step limit", err)
	}
	waitTier2(t, tc, 1)

	sys.cfg.MaxSteps = 0
	res, err := sys.Run()
	if err != nil {
		t.Fatalf("storm run: %v", err)
	}
	if res.T2Enters == 0 {
		t.Fatal("T2Enters = 0: storm never exercised tier 2")
	}
	if res.T2GuardFails == 0 {
		t.Error("T2GuardFails = 0: hoisted entry guard never bounced")
	}
	if res.T2Deopts == 0 {
		t.Error("T2Deopts = 0: shortfall storm never deoptimized")
	}
	if d := tc.Depth(); d < 0 || d > qcap {
		t.Errorf("queue depth %d outside [0,%d]", d, qcap)
	}
	checkParity(t, "deopt storm", sys, ref)
	if got := res.InterpInstrs + res.FragInstrs + res.NativeInstrs; got != res.Steps {
		t.Errorf("instruction modes %d+%d+%d != steps %d",
			res.InterpInstrs, res.FragInstrs, res.NativeInstrs, res.Steps)
	}
}

// TestTier2RandomDifferential is the tier-2 extension of the lockstep
// differential suite: on random programs, a System with an aggressive
// background compiler racing the running guest (threshold 1, publication at
// arbitrary points mid-run) must produce exactly the architectural state of
// both plain interpretation and a tier-1-only System. Each seed runs the
// first half under a step limit and then continues after the compile queue
// settles, so published superblocks demonstrably execute; accounting must
// keep partitioning every step into exactly one execution mode.
func TestTier2RandomDifferential(t *testing.T) {
	tc := NewTier2Compiler(2, 64)
	defer tc.Close()
	var enters, promotions, settled int64
	for seed := int64(0); seed < 40; seed++ {
		p := randprog.MustGenerate(seed, randprog.Options{})
		ref, refErr := runPlain(t, p)
		if refErr != nil {
			t.Fatalf("seed %d: plain run: %v", seed, refErr)
		}

		t1cfg := DefaultConfig(SchemeNET, 3)
		t1cfg.BailoutAfter = 0
		t1 := New(p, t1cfg)
		if _, err := t1.Run(); err != nil {
			t.Fatalf("seed %d: tier-1 run: %v", seed, err)
		}

		cfg := DefaultConfig(SchemeNET, 3)
		cfg.BailoutAfter = 0
		cfg.Tier2 = tc
		cfg.Tier2Threshold = 1
		cfg.MaxSteps = ref.Steps / 2
		sys := New(p, cfg)
		res, err := sys.Run()
		if errors.Is(err, vm.ErrStepLimit) {
			// Drain the queue so the continuation deterministically sees
			// whatever the warm half promoted.
			waitTier2(t, tc, settled+res.T2Promotions)
			sys.cfg.MaxSteps = 0
			res, err = sys.Run()
		}
		if err != nil {
			t.Fatalf("seed %d: tier-2 run: %v", seed, err)
		}
		settled += res.T2Promotions
		checkParity(t, fmt.Sprintf("seed %d", seed), sys, ref)
		if m1 := t1.Machine(); m1.Steps != sys.Machine().Steps || m1.Reg != sys.Machine().Reg {
			t.Errorf("seed %d: tier-2 state diverges from tier-1", seed)
		}
		if got := res.InterpInstrs + res.FragInstrs + res.NativeInstrs; got != res.Steps {
			t.Errorf("seed %d: instruction modes %d+%d+%d != steps %d",
				seed, res.InterpInstrs, res.FragInstrs, res.NativeInstrs, res.Steps)
		}
		enters += res.T2Enters
		promotions += res.T2Promotions
	}
	// The differential property is vacuous if tier 2 never engaged.
	if promotions == 0 {
		t.Error("no fragment was ever promoted across 40 seeds")
	}
	if enters == 0 {
		t.Error("no published superblock was ever dispatched across 40 seeds")
	}
}

// FuzzTier2Differential fuzzes the same property: any generator seed must
// yield identical architectural state with and without a racing background
// compiler.
func FuzzTier2Differential(f *testing.F) {
	for s := int64(0); s < 8; s++ {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		p, err := randprog.Generate(seed, randprog.Options{})
		if err != nil {
			t.Skip()
		}
		ref, refErr := runPlain(t, p)
		if refErr != nil {
			t.Skip() // generator contract: clean halt; nothing to compare
		}
		tc := NewTier2Compiler(1, 16)
		defer tc.Close()
		cfg := DefaultConfig(SchemeNET, 3)
		cfg.BailoutAfter = 0
		cfg.Tier2 = tc
		cfg.Tier2Threshold = 1
		sys := New(p, cfg)
		if _, err := sys.Run(); err != nil {
			t.Fatalf("seed %d: tier-2 run: %v", seed, err)
		}
		checkParity(t, fmt.Sprintf("seed %d", seed), sys, ref)
	})
}

// TestTier2ConcurrentSoak is the -race soak: many tenants share one
// compiler through a ShardSet, half of them under chaos injection (which
// promotes and publishes but never dispatches tier 2 — the slow stepper
// owns faulty runs), half clean and aggressively tiering up. Every run must
// match plain interpretation; the queue must stay bounded.
func TestTier2ConcurrentSoak(t *testing.T) {
	const (
		tenants = 8
		qcap    = 32
	)
	tc := NewTier2Compiler(2, qcap)
	defer tc.Close()
	ss := NewShardSet(TableBudget{HeadCounters: 1 << 12, Paths: 1 << 14, Fragments: 512}, false)
	ss.SetTier2(tc)

	var wg sync.WaitGroup
	errs := make(chan error, tenants*4)
	for ten := 0; ten < tenants; ten++ {
		wg.Add(1)
		go func(ten int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%d", ten)
			for seed := int64(1); seed <= 3; seed++ {
				p := randprog.MustGenerate(int64(ten)*11+seed, randprog.Options{})
				ref := vm.New(p)
				if err := ref.Run(0); err != nil {
					errs <- fmt.Errorf("%s seed %d: plain run: %w", tenant, seed, err)
					return
				}
				cfg := DefaultConfig(SchemeNET, 3)
				cfg.BailoutAfter = 0
				cfg.Tier2Threshold = 1
				ss.Alloc(tenant).Apply(&cfg)
				if ten%2 == 1 {
					cfg.Chaos = chaos.NewRandom(seed, softRates)
				}
				cfg.Telemetry = telemetry.Def.NewSink()
				sys := New(p, cfg)
				res, err := sys.Run()
				ss.Release(tenant, res)
				if err != nil {
					errs <- fmt.Errorf("%s seed %d: run: %w", tenant, seed, err)
					return
				}
				m := sys.Machine()
				if res.Steps != ref.Steps || m.Reg != ref.Reg {
					errs <- fmt.Errorf("%s seed %d: state diverges from plain VM (steps %d vs %d)",
						tenant, seed, res.Steps, ref.Steps)
					return
				}
			}
		}(ten)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if d := tc.Depth(); d < 0 || d > qcap {
		t.Errorf("queue depth %d outside [0,%d]", d, qcap)
	}
}

// TestTier2PromotionAllocs bounds the promotion slow path: snapshotting a
// fragment chain and attempting the enqueue — the only allocation-bearing
// tier-2 work the mutator ever does — must stay within a small fixed
// budget, entered at most once per threshold crossing per fragment. A
// closed compiler makes the enqueue a deterministic drop so the measurement
// has no background half.
func TestTier2PromotionAllocs(t *testing.T) {
	p := buildHotLoop(t, 2_000)
	cfg := DefaultConfig(SchemeNET, 5)
	sys := New(p, cfg)
	if _, err := sys.Run(); err != nil {
		t.Fatalf("warm run: %v", err)
	}
	var fr *Fragment
	for _, cand := range resident(sys) {
		if cand.Completions > 0 && len(cand.Steps) > 0 {
			fr = cand
			break
		}
	}
	if fr == nil {
		t.Fatal("warm run cached no completed fragment")
	}

	tc := NewTier2Compiler(1, 4)
	tc.Close()
	sys.t2c = tc
	sys.t2Threshold = 1

	allocs := testing.AllocsPerRun(100, func() {
		fr.t2.Store(nil)
		fr.t2Queued = false
		fr.t2Next = 1
		sys.maybePromote(fr)
	})
	// Snapshot slices (grown across the unrolled chain, up to t2UnrollCap
	// guest steps) and the job header; the budget has headroom but catches
	// anything per-step or accidental.
	if allocs > 32 {
		t.Errorf("promotion slow path allocates %.1f objects, budget 32", allocs)
	}

	// The fast rejection paths (already queued / already published) must be
	// allocation-free: they sit on the per-dispatch promotion check.
	fr.t2Queued = true
	if a := testing.AllocsPerRun(100, func() { sys.maybePromote(fr) }); a != 0 {
		t.Errorf("queued fast path allocates %.1f objects, want 0", a)
	}
	fr.t2Queued = false
	fr.t2.Store(&t2Block{})
	if a := testing.AllocsPerRun(100, func() { sys.maybePromote(fr) }); a != 0 {
		t.Errorf("tombstoned fast path allocates %.1f objects, want 0", a)
	}
}

// TestTier2DispatchAllocs: the dispatch fast path — loading the published
// block, checking entry guards, and running the superblock to completion
// with its boundary bookkeeping — must not allocate. This is the in-package
// twin of the bench gate's tier-2 alloc entry.
func TestTier2DispatchAllocs(t *testing.T) {
	p := buildHotLoop(t, 2_000_000_000) // never finishes; we dispatch manually
	tc := NewTier2Compiler(1, 16)
	defer tc.Close()
	cfg := DefaultConfig(SchemeNET, 5)
	cfg.Tier2 = tc
	cfg.Tier2Threshold = 1
	cfg.MaxSteps = 2000
	sys := New(p, cfg)
	if _, err := sys.Run(); !errors.Is(err, vm.ErrStepLimit) {
		t.Fatalf("warm-up run: err = %v, want step limit", err)
	}
	waitTier2(t, tc, 1)

	var blk *t2Block
	var fr *Fragment
	for _, cand := range resident(sys) {
		if b := cand.t2.Load(); b != nil && b.sb != nil {
			fr, blk = cand, b
			break
		}
	}
	if blk == nil {
		t.Fatal("no published superblock after warm-up")
	}
	sys.cfg.MaxSteps = 0
	sys.mode = modeFragment
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := sys.runTier2(fr, blk, 0); err != nil {
			t.Fatalf("runTier2: %v", err)
		}
		sys.mode = modeFragment
	})
	if allocs != 0 {
		t.Errorf("tier-2 dispatch allocates %.2f objects per entry, want 0", allocs)
	}
}
