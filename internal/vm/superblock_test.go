package vm

import (
	"testing"

	"netpath/internal/isa"
	"netpath/internal/prog"
	"netpath/internal/randprog"
)

// recordTrace steps m, recording up to max guest steps with their observed
// successors. Recording stops before a Halt and discards a faulting step
// (which has no successor).
func recordTrace(t *testing.T, m *Machine, max int) []SBStep {
	t.Helper()
	var spec []SBStep
	for len(spec) < max && !m.Halted {
		pc := m.PC
		in := m.Prog.Instrs[pc]
		if in.Op == isa.Halt {
			break
		}
		if err := m.Step(); err != nil {
			break
		}
		spec = append(spec, SBStep{In: in, PC: int32(pc), Next: int32(m.PC)})
	}
	return spec
}

// stepTo advances m until it has executed exactly steps instructions,
// returning the first error.
func stepTo(m *Machine, steps int64) error {
	for m.Steps < steps && !m.Halted {
		if err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}

func compareMachines(t *testing.T, got, want *Machine, label string) {
	t.Helper()
	if got.Steps != want.Steps {
		t.Errorf("%s: Steps = %d, want %d", label, got.Steps, want.Steps)
	}
	if got.PC != want.PC {
		t.Errorf("%s: PC = %d, want %d", label, got.PC, want.PC)
	}
	if got.Halted != want.Halted {
		t.Errorf("%s: Halted = %v, want %v", label, got.Halted, want.Halted)
	}
	if got.Reg != want.Reg {
		t.Errorf("%s: registers differ:\n got %v\nwant %v", label, got.Reg, want.Reg)
	}
	for i := range want.Mem {
		if got.Mem[i] != want.Mem[i] {
			t.Errorf("%s: Mem[%d] = %d, want %d", label, i, got.Mem[i], want.Mem[i])
			break
		}
	}
}

func buildLoop(t *testing.T, n int64) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("sbloop")
	b.SetMemSize(4)
	f := b.Func("main")
	f.MovI(0, 0)
	f.Label("loop")
	f.AddI(0, 0, 1)
	f.BrI(isa.Lt, 0, n, "loop")
	f.Store(0, 1, 0)
	f.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

// TestSuperblockLoop compiles one loop iteration and executes it to
// completion repeatedly, then through the final diverging iteration,
// comparing architectural state with a per-step reference at every exit.
func TestSuperblockLoop(t *testing.T) {
	const n = 1000
	p := buildLoop(t, n)

	rec := New(p)
	// Past MovI and the builder's fallthrough Jmp, at the loop head.
	if err := stepTo(rec, 2); err != nil {
		t.Fatalf("prefix: %v", err)
	}
	spec := recordTrace(t, rec, 2) // AddI ; BrI (taken)
	if len(spec) != 2 {
		t.Fatalf("recorded %d steps, want 2", len(spec))
	}

	sb, stats, err := CompileSuperblock(spec, p.Len())
	if err != nil {
		t.Fatalf("CompileSuperblock: %v", err)
	}
	// AddI+BrI is the canonical cmp+branch fusion: one host op, no hoist
	// (the guard reads the register the AddI writes).
	if stats.Fused != 1 || sb.NumOps() != 1 || sb.NumGuards() != 0 {
		t.Fatalf("stats = %+v, ops = %d, guards = %d; want one fused op", stats, sb.NumOps(), sb.NumGuards())
	}
	if sb.NGuest() != 2 {
		t.Fatalf("NGuest = %d, want 2", sb.NGuest())
	}

	m := New(p)
	ref := New(p)
	if err := stepTo(m, 2); err != nil {
		t.Fatalf("prefix: %v", err)
	}
	completions := 0
	for {
		if !sb.GuardsPass(m) {
			t.Fatal("entry guards failed; expected none")
		}
		x := m.RunSuperblock(sb)
		if x.Err != nil {
			t.Fatalf("unexpected fault: %v", x.Err)
		}
		if x.Completed {
			completions++
		} else {
			// The final iteration diverges at the fused guard sub-op: the
			// AddI completed on-trace, the branch replayed off-trace.
			if x.Guest != 1 {
				t.Errorf("diverging Guest = %d, want 1", x.Guest)
			}
			if err := stepTo(ref, m.Steps); err != nil {
				t.Fatalf("reference: %v", err)
			}
			compareMachines(t, m, ref, "at divergence")
			break
		}
	}
	if completions != n-1 {
		t.Errorf("completions = %d, want %d", completions, n-1)
	}

	// Finish both and compare the final state.
	if err := m.Run(0); err != nil {
		t.Fatalf("finish: %v", err)
	}
	if err := ref.Run(0); err != nil {
		t.Fatalf("reference finish: %v", err)
	}
	compareMachines(t, m, ref, "final")
	if m.Mem[0] != n {
		t.Errorf("Mem[0] = %d, want %d", m.Mem[0], n)
	}
}

// TestSuperblockGuardHoisting verifies that a guard whose operands are not
// written earlier in the block moves to the entry check, and that the entry
// check is a pure read that correctly gates execution.
func TestSuperblockGuardHoisting(t *testing.T) {
	b := prog.NewBuilder("hoist")
	b.SetMemSize(4)
	f := b.Func("main")
	f.Label("top")
	f.BrI(isa.Ge, 1, 100, "done") // guard: r1 < 100 on the hot path
	f.AddI(0, 0, 1)
	f.BrI(isa.Ge, 1, 100, "done") // identical guard: redundant
	f.AddI(0, 0, 3)
	f.Jmp("top")
	f.Label("done")
	f.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}

	rec := New(p)
	spec := recordTrace(t, rec, 5) // one full iteration incl. the back jump
	if len(spec) != 5 {
		t.Fatalf("recorded %d steps, want 5", len(spec))
	}
	sb, stats, err := CompileSuperblock(spec, p.Len())
	if err != nil {
		t.Fatalf("CompileSuperblock: %v", err)
	}
	if stats.Hoisted != 1 || stats.Redundant != 1 || sb.NumGuards() != 1 {
		t.Fatalf("stats = %+v, guards = %d; want 1 hoisted + 1 redundant", stats, sb.NumGuards())
	}
	// Both branches and the jump vanish; the two AddIs remain.
	if sb.NumOps() != 2 {
		t.Fatalf("NumOps = %d, want 2", sb.NumOps())
	}

	m := New(p)
	if !sb.GuardsPass(m) {
		t.Fatal("guards should pass with r1 = 0")
	}
	m.Reg[1] = 100
	save := *m
	saveReg := m.Reg
	if sb.GuardsPass(m) {
		t.Fatal("guards should fail with r1 = 100")
	}
	// The failed check must not have touched machine state.
	if m.Reg != saveReg || m.Steps != save.Steps || m.PC != save.PC {
		t.Error("GuardsPass mutated machine state")
	}

	// With guards passing, a completed run equals five reference steps.
	m.Reg[1] = 0
	ref := New(p)
	x := m.RunSuperblock(sb)
	if !x.Completed {
		t.Fatalf("exit = %+v, want completion", x)
	}
	if err := stepTo(ref, m.Steps); err != nil {
		t.Fatalf("reference: %v", err)
	}
	compareMachines(t, m, ref, "after completion")
}

// TestSuperblockFault drives a compiled block into a load fault and checks
// the fault message, pinned PC, step count, and register state match the
// per-step engine exactly.
func TestSuperblockFault(t *testing.T) {
	b := prog.NewBuilder("oob")
	b.SetMemSize(8)
	f := b.Func("main")
	f.Label("top")
	f.Load(2, 0, 0) // r2 = Mem[r0]
	f.AddI(0, 0, 1) // r0++
	f.Jmp("top")
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}

	rec := New(p)
	spec := recordTrace(t, rec, 3)
	if len(spec) != 3 {
		t.Fatalf("recorded %d steps, want 3", len(spec))
	}
	sb, _, err := CompileSuperblock(spec, p.Len())
	if err != nil {
		t.Fatalf("CompileSuperblock: %v", err)
	}

	m := New(p)
	ref := New(p)
	var sbErr error
	for sbErr == nil {
		x := m.RunSuperblock(sb)
		sbErr = x.Err
		if x.Err == nil && !x.Completed {
			t.Fatalf("unexpected divergence: %+v", x)
		}
	}
	refErr := stepTo(ref, m.Steps)
	if refErr == nil || sbErr.Error() != refErr.Error() {
		t.Fatalf("fault mismatch:\n superblock: %v\n reference:  %v", sbErr, refErr)
	}
	compareMachines(t, m, ref, "at fault")
	if !m.Halted {
		t.Error("machine not halted after fault")
	}
}

// TestSuperblockIndirectDivergence records a JmpInd going one way, then
// re-runs the block with the register pointing elsewhere: the indirect jump
// must replay through the per-step engine (emitting its branch event) and
// exit with the actual target.
func TestSuperblockIndirectDivergence(t *testing.T) {
	b := prog.NewBuilder("ind")
	b.SetMemSize(4)
	b.SetMemLabel(0, "a")
	b.SetMemLabel(1, "b")
	f := b.Func("main")
	f.Load(5, 6, 0) // r5 = Mem[r6] (r6 selects the target)
	f.JmpInd(5)
	f.Label("a")
	f.MovI(1, 10)
	f.Halt()
	f.Label("b")
	f.MovI(1, 20)
	f.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}

	rec := New(p)
	spec := recordTrace(t, rec, 2) // Load ; JmpInd -> "a"
	if len(spec) != 2 {
		t.Fatalf("recorded %d steps, want 2", len(spec))
	}
	sb, _, err := CompileSuperblock(spec, p.Len())
	if err != nil {
		t.Fatalf("CompileSuperblock: %v", err)
	}

	// On-trace: same machine state completes.
	m := New(p)
	if x := m.RunSuperblock(sb); !x.Completed {
		t.Fatalf("exit = %+v, want completion", x)
	}

	// Off-trace: select target "b"; the block diverges at the JmpInd.
	m = New(p)
	ref := New(p)
	m.Reg[6], ref.Reg[6] = 1, 1
	var events int
	m.SetListener(func(BranchEvent) { events++ })
	x := m.RunSuperblock(sb)
	if x.Completed || x.Err != nil {
		t.Fatalf("exit = %+v, want divergence", x)
	}
	if x.Guest != 1 {
		t.Errorf("Guest = %d, want 1", x.Guest)
	}
	if events != 1 {
		t.Errorf("branch events = %d, want 1 (the diverging transfer only)", events)
	}
	if err := stepTo(ref, m.Steps); err != nil {
		t.Fatalf("reference: %v", err)
	}
	compareMachines(t, m, ref, "at divergence")
}

// TestSuperblockCallRet covers the call/return fast paths: the recorded
// call pushes, the recorded ret pops when the stack top matches, and a
// mismatched return address diverges precisely.
func TestSuperblockCallRet(t *testing.T) {
	b := prog.NewBuilder("callret")
	b.SetMemSize(4)
	f := b.Func("main")
	f.Call("leaf")
	f.AddI(0, 0, 1)
	f.Halt()
	g := b.Func("leaf")
	g.AddI(1, 1, 1)
	g.Ret()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}

	rec := New(p)
	spec := recordTrace(t, rec, 4) // Call ; AddI ; Ret ; AddI
	if len(spec) != 4 {
		t.Fatalf("recorded %d steps, want 4", len(spec))
	}
	sb, _, err := CompileSuperblock(spec, p.Len())
	if err != nil {
		t.Fatalf("CompileSuperblock: %v", err)
	}

	m := New(p)
	ref := New(p)
	x := m.RunSuperblock(sb)
	if !x.Completed {
		t.Fatalf("exit = %+v, want completion", x)
	}
	if err := stepTo(ref, m.Steps); err != nil {
		t.Fatalf("reference: %v", err)
	}
	compareMachines(t, m, ref, "after completion")
	if len(m.stack) != 0 {
		t.Errorf("stack depth = %d, want 0", len(m.stack))
	}
}

// TestSuperblockCompileRefusals checks that specs the compiler cannot prove
// it understands are rejected, not approximated.
func TestSuperblockCompileRefusals(t *testing.T) {
	cases := []struct {
		name string
		spec []SBStep
	}{
		{"empty", nil},
		{"halt", []SBStep{{In: isa.Instr{Op: isa.Halt}, PC: 0, Next: 1}}},
		{"pc out of range", []SBStep{{In: isa.Instr{Op: isa.Nop}, PC: 99, Next: 1}}},
		{"next out of range", []SBStep{{In: isa.Instr{Op: isa.Nop}, PC: 0, Next: 99}}},
		{"straight bad next", []SBStep{{In: isa.Instr{Op: isa.AddI, A: 1, B: 1, Imm: 1}, PC: 0, Next: 2}}},
		{"jmp bad next", []SBStep{{In: isa.Instr{Op: isa.Jmp, Target: 3}, PC: 0, Next: 1}}},
		{"branch impossible next", []SBStep{{In: isa.Instr{Op: isa.BrI, Cond: isa.Lt, A: 1, Target: 3}, PC: 0, Next: 2}}},
		{"bad register", []SBStep{{In: isa.Instr{Op: isa.Mov, A: 40, B: 0}, PC: 0, Next: 1}}},
		{"invalid opcode", []SBStep{{In: isa.Instr{Op: isa.Op(200)}, PC: 0, Next: 1}}},
		{"steps do not chain", []SBStep{
			{In: isa.Instr{Op: isa.AddI, A: 1, B: 1, Imm: 1}, PC: 0, Next: 1},
			{In: isa.Instr{Op: isa.AddI, A: 2, B: 2, Imm: 1}, PC: 5, Next: 6},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := CompileSuperblock(tc.spec, 10); err == nil {
				t.Error("compile succeeded, want refusal")
			}
		})
	}
}

// TestSuperblockFusionLowering exercises the load+ALU and ALU+store fused
// forms end to end, including the skip-crossing case (fusing across a Nop).
func TestSuperblockFusionLowering(t *testing.T) {
	b := prog.NewBuilder("fuse")
	b.SetMemSize(16)
	b.SetMem(3, 7)
	f := b.Func("main")
	f.Load(2, 1, 3)         // r2 = Mem[r1+3]
	f.Nop()                 // fusion must reach across this
	f.Op3(isa.Add, 3, 2, 2) // r3 = r2 + r2
	f.AddI(4, 3, 5)         // r4 = r3 + 5
	f.Store(4, 1, 6)        // Mem[r1+6] = r4
	f.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}

	rec := New(p)
	spec := recordTrace(t, rec, 5)
	if len(spec) != 5 {
		t.Fatalf("recorded %d steps, want 5", len(spec))
	}
	sb, stats, err := CompileSuperblock(spec, p.Len())
	if err != nil {
		t.Fatalf("CompileSuperblock: %v", err)
	}
	// Load+Add fuse across the Nop; AddI+Store fuse; 5 guest steps → 2 ops.
	if stats.Fused != 2 || stats.Skipped != 1 || sb.NumOps() != 2 {
		t.Fatalf("stats = %+v, ops = %d; want 2 fused, 1 skipped, 2 ops", stats, sb.NumOps())
	}

	m := New(p)
	ref := New(p)
	x := m.RunSuperblock(sb)
	if !x.Completed {
		t.Fatalf("exit = %+v, want completion", x)
	}
	if err := stepTo(ref, m.Steps); err != nil {
		t.Fatalf("reference: %v", err)
	}
	compareMachines(t, m, ref, "after completion")
	if m.Mem[6] != 19 { // (7+7)+5
		t.Errorf("Mem[6] = %d, want 19", m.Mem[6])
	}
}

// TestSuperblockRandomDifferential is the property test: for random guest
// programs, a superblock compiled from a recorded trace must reproduce the
// per-step engine's architectural state exactly — registers, memory, step
// count, PC, and faults — both on-trace and after a forced perturbation.
func TestSuperblockRandomDifferential(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		p, err := randprog.Generate(seed, randprog.Options{})
		if err != nil {
			continue
		}
		rec := New(p)
		spec := recordTrace(t, rec, 64)
		if len(spec) < 2 {
			continue
		}
		sb, _, err := CompileSuperblock(spec, p.Len())
		if err != nil {
			continue // refusal is always safe
		}

		// On-trace: from the recorded start state the block must complete.
		m, ref := New(p), New(p)
		if !sb.GuardsPass(m) {
			t.Errorf("seed %d: entry guards fail on the recorded state", seed)
			continue
		}
		x := m.RunSuperblock(sb)
		if !x.Completed {
			t.Errorf("seed %d: exit = %+v, want completion", seed, x)
			continue
		}
		if serr := stepTo(ref, m.Steps); serr != nil {
			t.Errorf("seed %d: reference error on-trace: %v", seed, serr)
			continue
		}
		compareMachines(t, m, ref, "seed on-trace")

		// Perturbed: flip a register and compare the (possibly diverging or
		// faulting) run against the reference stepped the same distance.
		for r := uint8(0); r < 8; r++ {
			m, ref = New(p), New(p)
			m.Reg[r] += 1000003
			ref.Reg[r] += 1000003
			if !sb.GuardsPass(m) {
				continue // tier-1 fallback case; nothing to compare
			}
			x := m.RunSuperblock(sb)
			refErr := stepTo(ref, m.Steps)
			if (x.Err == nil) != (refErr == nil) {
				t.Errorf("seed %d r%d: fault mismatch: superblock %v, reference %v", seed, r, x.Err, refErr)
				continue
			}
			if x.Err != nil && x.Err.Error() != refErr.Error() {
				t.Errorf("seed %d r%d: fault text:\n superblock: %v\n reference:  %v", seed, r, x.Err, refErr)
			}
			compareMachines(t, m, ref, "seed perturbed")
		}
	}
}

// TestRunSuperblockAllocs pins the tier-2 dispatch path at zero allocations
// per executed superblock.
func TestRunSuperblockAllocs(t *testing.T) {
	p := buildLoop(t, 1<<40)
	rec := New(p)
	if err := stepTo(rec, 2); err != nil {
		t.Fatalf("prefix: %v", err)
	}
	spec := recordTrace(t, rec, 2)
	sb, _, err := CompileSuperblock(spec, p.Len())
	if err != nil {
		t.Fatalf("CompileSuperblock: %v", err)
	}
	m := New(p)
	if err := stepTo(m, 2); err != nil {
		t.Fatalf("prefix: %v", err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if !sb.GuardsPass(m) {
			t.Fatal("guards failed")
		}
		if x := m.RunSuperblock(sb); !x.Completed {
			t.Fatal("did not complete")
		}
	}); n != 0 {
		t.Errorf("tier-2 dispatch allocates %v allocs/op, want 0", n)
	}
}

// maskedLoopProgram: cursor masked into the window each iteration, then a
// load and a store at the masked register.
func maskedLoopProgram(t testing.TB) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("masked")
	b.SetMemSize(256)
	f := b.Func("main")
	f.MovI(1, 0)
	f.Label("loop")
	f.AndI(2, 1, 255)
	f.Load(3, 2, 0)
	f.AddI(3, 3, 1)
	f.Store(3, 2, 0)
	f.AddI(1, 1, 11)
	f.BrI(isa.Lt, 1, 4000, "loop")
	f.Halt()
	return b.MustBuild()
}

// TestSuperblockMaskedLoopLockstep: a superblock over a loop of checked
// loads and stores must be architecturally identical to per-step
// execution, run to run, for many dispatches.
func TestSuperblockMaskedLoopLockstep(t *testing.T) {
	p := maskedLoopProgram(t)
	ref := New(p)
	spec := recordTrace(t, ref, 14) // two full iterations

	sb, _, err := CompileSuperblock(spec, p.Len())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	for _, op := range sb.Ops() {
		if op.Kind == SBOpInvalid {
			t.Fatal("compiled superblock contains an unregistered handler")
		}
	}

	mSB := New(p)
	mStep := New(p)
	start := int(spec[0].PC)
	for dispatch := 0; dispatch < 50; dispatch++ {
		if mSB.PC != start || mSB.Halted {
			break
		}
		if !sb.GuardsPass(mSB) {
			break
		}
		exit := mSB.RunSuperblock(sb)
		if exit.Err != nil {
			t.Fatalf("dispatch %d: superblock fault: %v", dispatch, exit.Err)
		}
		for i := int32(0); i < exit.Guest; i++ {
			if err := mStep.Step(); err != nil {
				t.Fatalf("dispatch %d: reference step: %v", dispatch, err)
			}
		}
		if !exit.Completed {
			if err := mStep.Step(); err != nil {
				t.Fatalf("dispatch %d: reference diverge step: %v", dispatch, err)
			}
		}
		compareMachines(t, mSB, mStep, "masked loop lockstep")
		if t.Failed() {
			t.Fatalf("state diverged on dispatch %d", dispatch)
		}
	}
	if mSB.Steps == 0 {
		t.Fatal("superblock never ran")
	}
}

// TestNopSuccessorRefused: a Nop whose recorded successor is not pc+1 is a
// corrupt spec, not something to compile around.
func TestNopSuccessorRefused(t *testing.T) {
	spec := []SBStep{{In: isa.Instr{Op: isa.Nop}, PC: 3, Next: 9}}
	_, _, err := CompileSuperblock(spec, 20)
	if err == nil {
		t.Fatal("nop with wild successor compiled")
	}
}

// TestPruneImpliedGuards exercises the entry-guard pruning lattice directly.
func TestPruneImpliedGuards(t *testing.T) {
	lt := func(a uint8, imm int64) sbGuard {
		return sbGuard{a: a, useImm: true, want: true, cond: isa.Lt, imm: imm}
	}
	ge := func(a uint8, imm int64) sbGuard {
		return sbGuard{a: a, useImm: true, want: true, cond: isa.Ge, imm: imm}
	}
	ne := func(a uint8, imm int64) sbGuard {
		return sbGuard{a: a, useImm: true, want: true, cond: isa.Ne, imm: imm}
	}
	rr := sbGuard{a: 1, b: 2, want: true, cond: isa.Lt}

	var stats SBStats
	in := []sbGuard{
		lt(1, 100), // keeps: first bound on r1
		lt(1, 200), // implied: [_,99] within [_,199]
		ge(1, 0),   // keeps: adds lower bound
		ne(1, 500), // implied: 500 outside [0,99]
		ne(1, 50),  // keeps: 50 inside [0,99]
		rr,         // keeps: register-form untouched
		lt(3, 10),  // keeps: different register
	}
	out := pruneImpliedGuards(in, &stats)
	if len(out) != 5 {
		t.Fatalf("kept %d guards, want 5: %+v", len(out), out)
	}
	if stats.Implied != 2 {
		t.Errorf("Implied = %d, want 2", stats.Implied)
	}
	// The kept set must still contain the RR guard and both r1 bounds.
	var haveRR, haveLt100, haveGe0 bool
	for _, g := range out {
		if !g.useImm {
			haveRR = true
		}
		if g.useImm && g.cond == isa.Lt && g.imm == 100 {
			haveLt100 = true
		}
		if g.useImm && g.cond == isa.Ge && g.imm == 0 {
			haveGe0 = true
		}
	}
	if !haveRR || !haveLt100 || !haveGe0 {
		t.Errorf("pruning dropped a load-bearing guard: %+v", out)
	}
}

// TestBodyChecksAccounting: checkPfx must total the in-body checks and be
// monotone, and count every load and store of the body.
func TestBodyChecksAccounting(t *testing.T) {
	p := maskedLoopProgram(t)
	m := New(p)
	spec := recordTrace(t, m, 14)
	plain, _, err := CompileSuperblock(spec, p.Len())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var memOps int64
	for _, st := range spec {
		if st.In.Op == isa.Load || st.In.Op == isa.Store {
			memOps++
		}
	}
	if plain.BodyChecksAll() < memOps {
		t.Errorf("body checks %d < %d loads and stores", plain.BodyChecksAll(), memOps)
	}
	for g := int32(0); g <= int32(plain.NGuest()); g++ {
		if plain.BodyChecksUpTo(g) > plain.BodyChecksAll() {
			t.Fatalf("BodyChecksUpTo(%d) exceeds total", g)
		}
		if g > 0 && plain.BodyChecksUpTo(g) < plain.BodyChecksUpTo(g-1) {
			t.Fatalf("BodyChecksUpTo not monotone at %d", g)
		}
	}
	if plain.BodyChecksUpTo(int32(plain.NGuest())) != plain.BodyChecksAll() {
		t.Error("BodyChecksUpTo(NGuest) != BodyChecksAll")
	}
}

// TestGuardsIntrospection: Guards() must reflect the hoisted entry guards.
func TestGuardsIntrospection(t *testing.T) {
	p := maskedLoopProgram(t)
	m := New(p)
	spec := recordTrace(t, m, 14)
	sb, _, err := CompileSuperblock(spec, p.Len())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if len(sb.Guards()) != sb.NumGuards() {
		t.Fatalf("Guards() length %d != NumGuards %d", len(sb.Guards()), sb.NumGuards())
	}
	for _, op := range sb.Ops() {
		if op.Kind == SBOpInvalid {
			t.Fatal("unregistered handler in compiled block")
		}
	}
}
