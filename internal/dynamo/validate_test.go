package dynamo

import (
	"errors"
	"testing"

	"netpath/internal/dataflow"
	"netpath/internal/isa"
	"netpath/internal/prog"
	"netpath/internal/vm"
)

// buildMaskedHotLoop is a hot loop whose memory accesses go through a
// masked cursor: every load and store is statically provably in-bounds, so
// tier-2 elision has something to prove and drop.
func buildMaskedHotLoop(t *testing.T, n int64) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("maskedhot")
	b.SetMemSize(256)
	f := b.Func("main")
	f.MovI(0, 0)
	f.Label("loop")
	f.AndI(2, 0, 255)
	f.Load(3, 2, 0)
	f.AddI(3, 3, 1)
	f.Store(3, 2, 0)
	f.AddI(0, 0, 7)
	f.BrI(isa.Lt, 0, n, "loop")
	f.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

// TestValidateEmitsCleanRun: with the validator on, an ordinary run checks
// every emitted fragment, rejects none, and finishes architecturally
// identical to plain interpretation.
func TestValidateEmitsCleanRun(t *testing.T) {
	p := buildMaskedHotLoop(t, 50_000)
	ref, refErr := runPlain(t, p)
	if refErr != nil {
		t.Fatalf("plain run: %v", refErr)
	}
	cfg := DefaultConfig(SchemeNET, 5)
	cfg.ValidateEmits = true
	sys := New(p, cfg)
	res, err := sys.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.ValidatorChecked == 0 {
		t.Error("ValidatorChecked = 0: validator never ran")
	}
	if res.ValidatorRejects != 0 {
		t.Errorf("ValidatorRejects = %d on an honest optimizer", res.ValidatorRejects)
	}
	checkParity(t, "validated run", sys, ref)
}

// TestValidateEmitRejectsCorruptFragment: a fragment carrying an elimination
// claim the optimizer's rules cannot justify — the seeded-miscompile case —
// must be refused installation and counted.
func TestValidateEmitRejectsCorruptFragment(t *testing.T) {
	p := buildMaskedHotLoop(t, 100)
	cfg := DefaultConfig(SchemeNET, 5)
	cfg.ValidateEmits = true
	sys := New(p, cfg)

	// pc1 is the AndI on a non-constant cursor: claiming it const-folded is
	// a lie no replay of the rules can re-derive.
	fr := &Fragment{Start: 1, Steps: []dataflow.GuestStep{
		{PC: 1, In: p.Instrs[1], Next: 2, Eliminated: true, Why: "const-folded"},
		{PC: 2, In: p.Instrs[2], Next: 3},
	}}
	if sys.validateEmit(fr) {
		t.Fatal("validator accepted a fabricated const-folded claim")
	}
	if sys.res.ValidatorRejects != 1 || sys.res.ValidatorChecked != 1 {
		t.Errorf("counters: checked=%d rejects=%d, want 1/1",
			sys.res.ValidatorChecked, sys.res.ValidatorRejects)
	}

	// The honest version of the same fragment passes.
	ok := &Fragment{Start: 1, Steps: []dataflow.GuestStep{
		{PC: 1, In: p.Instrs[1], Next: 2},
		{PC: 2, In: p.Instrs[2], Next: 3},
	}}
	if !sys.validateEmit(ok) {
		t.Fatal("validator rejected an honest fragment")
	}
}

// runTier2Deterministic does the warm-up / wait / continuation dance so the
// continuation run dispatches a published superblock deterministically.
func runTier2Deterministic(t *testing.T, p *prog.Program, elide bool) (Result, *System) {
	t.Helper()
	tc := NewTier2Compiler(1, 16)
	defer tc.Close()
	cfg := DefaultConfig(SchemeNET, 5)
	cfg.Tier2 = tc
	cfg.Tier2Threshold = 1
	cfg.Tier2Elide = elide
	cfg.ValidateEmits = true
	cfg.MaxSteps = 2000
	sys := New(p, cfg)
	if _, err := sys.Run(); !errors.Is(err, vm.ErrStepLimit) {
		t.Fatalf("warm-up run: err = %v, want step limit", err)
	}
	waitTier2(t, tc, 1)
	if tc.Compiled() == 0 {
		t.Fatalf("nothing compiled (rejected=%d)", tc.Rejected())
	}
	sys.cfg.MaxSteps = 0
	res, err := sys.Run()
	if err != nil {
		t.Fatalf("continuation run: %v", err)
	}
	return res, sys
}

// TestTier2ElideValidatedParity: with elision and validation both on, the
// superblock drops statically proven checks, the validator confirms the
// block, and the guest-visible result is byte-identical to plain execution.
func TestTier2ElideValidatedParity(t *testing.T) {
	p := buildMaskedHotLoop(t, 50_000)
	ref, refErr := runPlain(t, p)
	if refErr != nil {
		t.Fatalf("plain run: %v", refErr)
	}
	res, sys := runTier2Deterministic(t, p, true)
	if res.T2Enters == 0 {
		t.Fatal("published superblock never dispatched")
	}
	if res.T2BoundsElided == 0 {
		t.Error("T2BoundsElided = 0: masked accesses were not statically elided")
	}
	if res.T2ValidatorChecked == 0 {
		t.Error("T2ValidatorChecked = 0: superblock was never validated")
	}
	if res.T2ValidatorRejects != 0 {
		t.Errorf("T2ValidatorRejects = %d on an honest compiler", res.T2ValidatorRejects)
	}
	checkParity(t, "elided tier-2 run", sys, ref)
}

// TestTier2ElisionReducesGuardChecks: the guards-executed-per-step metric
// must strictly drop when statically proven checks are elided, at identical
// guest work.
func TestTier2ElisionReducesGuardChecks(t *testing.T) {
	p := buildMaskedHotLoop(t, 50_000)
	plain, _ := runTier2Deterministic(t, p, false)
	elided, _ := runTier2Deterministic(t, p, true)
	if plain.T2Instrs == 0 || elided.T2Instrs == 0 {
		t.Fatalf("tier-2 never ran: plain=%d elided=%d", plain.T2Instrs, elided.T2Instrs)
	}
	plainRate := float64(plain.T2GuardChecks) / float64(plain.T2Instrs)
	elidedRate := float64(elided.T2GuardChecks) / float64(elided.T2Instrs)
	if elidedRate >= plainRate {
		t.Errorf("guards per tier-2 step did not drop: %.4f (elided) vs %.4f (plain)",
			elidedRate, plainRate)
	}
}
