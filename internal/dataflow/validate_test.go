package dataflow

import (
	"testing"

	"netpath/internal/isa"
	"netpath/internal/prog"
	"netpath/internal/vm"
)

// record executes m from its current PC, capturing up to max guest steps
// with their observed successors (stopping before a halt or fault).
func record(t *testing.T, m *vm.Machine, max int) []vm.SBStep {
	t.Helper()
	var spec []vm.SBStep
	for len(spec) < max && !m.Halted {
		pc := m.PC
		in := m.Prog.Instrs[pc]
		if in.Op == isa.Halt {
			break
		}
		if err := m.Step(); err != nil {
			t.Fatalf("record: step at pc %d: %v", pc, err)
		}
		spec = append(spec, vm.SBStep{In: in, PC: int32(pc), Next: int32(m.PC)})
	}
	return spec
}

// TestValidateSuperblockFreshLoop is the end-to-end positive path: record a
// loop of masked loads, compile it, validate it.
func TestValidateSuperblockFreshLoop(t *testing.T) {
	p := freshProgram(t)
	m := vm.New(p)
	spec := record(t, m, 40)
	if len(spec) < 10 {
		t.Fatalf("recorded only %d steps", len(spec))
	}
	sb, _, err := vm.CompileSuperblock(spec, p.Len())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if err := ValidateSuperblock(p, spec, sb); err != nil {
		t.Fatalf("validator rejected a correct superblock: %v", err)
	}
}

// TestValidateRejectsTamperedSpec: a spec whose recorded instruction no
// longer matches the program image must be rejected before any equivalence
// reasoning.
func TestValidateRejectsTamperedSpec(t *testing.T) {
	p := freshProgram(t)
	m := vm.New(p)
	spec := record(t, m, 20)
	sb, _, err := vm.CompileSuperblock(spec, p.Len())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	tampered := append([]vm.SBStep(nil), spec...)
	tampered[3].In.Imm++
	if err := ValidateSuperblock(p, tampered, sb); err == nil {
		t.Fatal("validator accepted a spec that disagrees with the program image")
	}
}

// TestValidateRejectsWrongDirectionGuard: flipping a recorded branch
// direction after compilation makes the compiled guard contradict the spec.
func TestValidateRejectsWrongDirectionGuard(t *testing.T) {
	p := freshProgram(t)
	m := vm.New(p)
	spec := record(t, m, 20)
	sb, _, err := vm.CompileSuperblock(spec, p.Len())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	// Find a recorded conditional branch and flip its direction to the
	// other legal successor.
	flipped := append([]vm.SBStep(nil), spec...)
	found := false
	for i := len(flipped) - 1; i >= 0; i-- {
		in := flipped[i].In
		if in.Op == isa.BrI && int(in.Target) != int(flipped[i].PC)+1 {
			if flipped[i].Next == in.Target {
				flipped[i].Next = flipped[i].PC + 1
			} else {
				flipped[i].Next = in.Target
			}
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no conditional branch in spec")
	}
	if err := ValidateSuperblock(p, flipped, sb); err == nil {
		t.Fatal("validator accepted a guard whose direction contradicts the spec")
	}
}

// TestValidateAcrossCallAndRet: a trace through a call and return must
// validate — the callee's steps are on the trace and the walk must not
// clobber register knowledge at the boundary.
func TestValidateAcrossCallAndRet(t *testing.T) {
	b := prog.NewBuilder("callret")
	b.SetMemSize(128)
	fn := b.Func("main")
	fn.MovI(1, 0)
	fn.Label("loop")
	fn.AndI(2, 1, 127)
	fn.Call("body")
	fn.AddI(1, 1, 3)
	fn.BrI(isa.Lt, 1, 500, "loop")
	fn.Halt()
	body := b.Func("body")
	body.Load(3, 2, 0) // r2 masked by the caller
	body.Ret()
	p := b.MustBuild()
	m := vm.New(p)
	spec := record(t, m, 24)
	sb, _, err := vm.CompileSuperblock(spec, p.Len())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if err := ValidateSuperblock(p, spec, sb); err != nil {
		t.Fatalf("validator rejected a call-crossing superblock: %v", err)
	}
}

// fragSteps builds GuestSteps over p by walking from start with the given
// per-step successors inferred from the instruction semantics.
func fragStep(p *prog.Program, pc int, next int) GuestStep {
	return GuestStep{PC: pc, In: p.Instrs[pc], Next: next}
}

func TestValidateFragmentClaims(t *testing.T) {
	b := prog.NewBuilder("frag")
	b.SetMemSize(16)
	fn := b.Func("main")
	fn.MovI(0, 4)            // 0
	fn.MovI(1, 6)            // 1
	fn.Op3(isa.Add, 2, 0, 1) // 2: const-foldable (r2 = 10)
	fn.Jmp("l")              // 3: straightenable
	fn.Label("l")
	fn.BrI(isa.Lt, 2, 100, "m") // 4: branch-foldable (10 < 100, taken)
	fn.Label("m")
	fn.Load(3, 0, 0) // 5
	fn.Load(4, 0, 0) // 6: redundant (same base version, same offset)
	fn.MovI(5, 1)    // 7: dead write (overwritten at 8 before any read)
	fn.MovI(5, 2)    // 8
	fn.Halt()        // 9
	p := b.MustBuild()

	steps := []GuestStep{
		fragStep(p, 0, 1),
		fragStep(p, 1, 2),
		fragStep(p, 2, 3),
		fragStep(p, 3, 4),
		fragStep(p, 4, 5),
		fragStep(p, 5, 6),
		fragStep(p, 6, 7),
		fragStep(p, 7, 8),
		fragStep(p, 8, 9),
	}
	claim := func(i int, why string) {
		steps[i].Eliminated = true
		steps[i].Why = why
	}
	claim(2, "const-folded")
	claim(3, "jump-straightened")
	claim(4, "branch-folded")
	claim(6, "redundant-load")
	claim(7, "dead-write")
	if err := ValidateFragment(p, 0, steps); err != nil {
		t.Fatalf("all claims are justified, validator rejected: %v", err)
	}

	// Each corruption below must be caught.
	corrupt := func(name string, mutate func(s []GuestStep)) {
		t.Run(name, func(t *testing.T) {
			bad := append([]GuestStep(nil), steps...)
			mutate(bad)
			if err := ValidateFragment(p, 0, bad); err == nil {
				t.Fatal("corrupted claim accepted")
			}
		})
	}
	corrupt("const-fold-unknown-operand", func(s []GuestStep) {
		// Claim the load at step 5 was const-folded: loads are never
		// constant.
		s[5].Eliminated, s[5].Why = true, "const-folded"
	})
	corrupt("branch-fold-unknown-operand", func(s []GuestStep) {
		// r3 comes from a load: a branch on it cannot fold. Retarget the
		// claim at step 4 onto operands that are not constant by making
		// the fold illegitimate: drop the MovI that seeds r2.
		s[0].Eliminated, s[0].Why = true, "dead-write" // r0 is read at 2: bogus
	})
	corrupt("redundant-load-after-clobber", func(s []GuestStep) {
		// Claim the FIRST load redundant: nothing precedes it.
		s[5].Eliminated, s[5].Why = true, "redundant-load"
	})
	corrupt("dead-write-actually-read", func(s []GuestStep) {
		// r2 is read by the branch at 4: eliminating its writer is wrong.
		s[2].Why = "dead-write"
	})
	corrupt("unknown-rule", func(s []GuestStep) {
		s[2].Why = "vibes"
	})
	corrupt("jump-claim-on-non-jump", func(s []GuestStep) {
		s[5].Eliminated, s[5].Why = true, "jump-straightened"
	})
}

func TestValidateFragmentPathLegality(t *testing.T) {
	p := freshProgram(t)
	m := vm.New(p)
	var steps []GuestStep
	for len(steps) < 15 {
		pc := m.PC
		in := p.Instrs[pc]
		if in.Op == isa.Halt {
			break
		}
		if err := m.Step(); err != nil {
			t.Fatalf("step: %v", err)
		}
		steps = append(steps, GuestStep{PC: pc, In: in, Next: m.PC})
	}
	if err := ValidateFragment(p, steps[0].PC, steps); err != nil {
		t.Fatalf("legal recorded path rejected: %v", err)
	}

	broken := append([]GuestStep(nil), steps...)
	broken[4].Next = broken[4].PC // self-successor on a straight op
	if err := ValidateFragment(p, broken[0].PC, broken); err == nil {
		t.Fatal("illegal successor accepted")
	}

	unchained := append([]GuestStep(nil), steps...)
	unchained[2].In = p.Instrs[unchained[3].PC] // instruction/image mismatch
	if err := ValidateFragment(p, unchained[0].PC, unchained); err == nil {
		t.Fatal("image mismatch accepted")
	}
}

// TestValidateFragmentDeadWriteSideExit: a conditional branch between a
// write and its overwrite exposes the register; the claim must be rejected.
func TestValidateFragmentDeadWriteSideExit(t *testing.T) {
	b := prog.NewBuilder("sideexit")
	b.SetMemSize(8)
	fn := b.Func("main")
	fn.MovI(5, 1)              // 0: candidate
	fn.BrI(isa.Lt, 1, 10, "l") // 1: side exit in between
	fn.Label("l")
	fn.MovI(5, 2) // 2: overwrite
	fn.Halt()     // 3
	p := b.MustBuild()
	steps := []GuestStep{
		{PC: 0, In: p.Instrs[0], Next: 1, Eliminated: true, Why: "dead-write"},
		{PC: 1, In: p.Instrs[1], Next: 2},
		{PC: 2, In: p.Instrs[2], Next: 3},
	}
	if err := ValidateFragment(p, 0, steps); err == nil {
		t.Fatal("dead-write across a side exit accepted")
	}
}
