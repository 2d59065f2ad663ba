package dynamo

import (
	"testing"

	"netpath/internal/dataflow"
	"netpath/internal/isa"
)

// mkTrace builds trace steps with sequential PCs; Next defaults to PC+1.
func mkTrace(ins ...isa.Instr) []dataflow.GuestStep {
	steps := make([]dataflow.GuestStep, len(ins))
	for i, in := range ins {
		steps[i] = dataflow.GuestStep{PC: 100 + i, In: in, Next: 100 + i + 1}
	}
	return steps
}

func eliminatedWhys(fr *Fragment) map[int]string {
	out := map[int]string{}
	for i, s := range fr.Steps {
		if s.Eliminated {
			out[i] = s.Why
		}
	}
	return out
}

func TestJumpStraightening(t *testing.T) {
	fr := NewOptimizer().Optimize(100, mkTrace(
		isa.Instr{Op: isa.AddI, A: 1, B: 1, Imm: 1},
		isa.Instr{Op: isa.Jmp, Target: 200},
		isa.Instr{Op: isa.AddI, A: 2, B: 2, Imm: 1},
	))
	whys := eliminatedWhys(fr)
	if whys[1] != "jump-straightened" {
		t.Errorf("jump not straightened: %v", whys)
	}
	if fr.Eliminated != 1 {
		t.Errorf("eliminated = %d, want 1", fr.Eliminated)
	}
	if fr.EmittedLen() != 2 {
		t.Errorf("emitted = %d, want 2", fr.EmittedLen())
	}
}

func TestConstantFolding(t *testing.T) {
	fr := NewOptimizer().Optimize(100, mkTrace(
		isa.Instr{Op: isa.MovI, A: 1, Imm: 7},                             // seeds r1=7 (kept)
		isa.Instr{Op: isa.AddI, A: 2, B: 1, Imm: 3},                       // r2=10 folded
		isa.Instr{Op: isa.Add, A: 3, B: 2, C: 1},                          // r3=17 folded
		isa.Instr{Op: isa.Mov, A: 4, B: 3},                                // folded
		isa.Instr{Op: isa.Load, A: 5, B: 0, Imm: 0},                       // kills r5
		isa.Instr{Op: isa.Add, A: 6, B: 5, C: 1},                          // not folded (r5 unknown)
		isa.Instr{Op: isa.BrI, Cond: isa.Lt, A: 3, Imm: 100, Target: 300}, // folded: r3 known
		isa.Instr{Op: isa.Br, Cond: isa.Lt, A: 5, B: 6, Target: 300},      // kept: unknown
	))
	whys := eliminatedWhys(fr)
	for _, want := range []int{1, 2, 3} {
		if whys[want] != "const-folded" {
			t.Errorf("step %d: %q, want const-folded (all: %v)", want, whys[want], whys)
		}
	}
	if whys[6] != "branch-folded" {
		t.Errorf("known-operand branch not folded: %v", whys)
	}
	if _, bad := whys[0]; bad {
		t.Error("constant seed must be kept")
	}
	if _, bad := whys[5]; bad {
		t.Error("op with unknown operand must be kept")
	}
	if _, bad := whys[7]; bad {
		t.Error("branch with unknown operands must be kept")
	}
}

func TestRedundantLoadElimination(t *testing.T) {
	fr := NewOptimizer().Optimize(100, mkTrace(
		isa.Instr{Op: isa.Load, A: 1, B: 10, Imm: 4},
		isa.Instr{Op: isa.Load, A: 2, B: 10, Imm: 4}, // redundant
		isa.Instr{Op: isa.Load, A: 3, B: 10, Imm: 8}, // different offset: kept
		isa.Instr{Op: isa.Store, A: 1, B: 10, Imm: 0},
		isa.Instr{Op: isa.Load, A: 4, B: 10, Imm: 4}, // after store: kept
	))
	whys := eliminatedWhys(fr)
	if whys[1] != "redundant-load" {
		t.Errorf("redundant load not removed: %v", whys)
	}
	for _, kept := range []int{0, 2, 4} {
		if _, bad := whys[kept]; bad {
			t.Errorf("step %d must be kept: %v", kept, whys)
		}
	}
}

func TestRedundantLoadBaseRedefinition(t *testing.T) {
	fr := NewOptimizer().Optimize(100, mkTrace(
		isa.Instr{Op: isa.Load, A: 1, B: 10, Imm: 4},
		isa.Instr{Op: isa.AddI, A: 10, B: 10, Imm: 1}, // base changes
		isa.Instr{Op: isa.Load, A: 2, B: 10, Imm: 4},  // NOT redundant
	))
	if fr.Steps[2].Eliminated {
		t.Error("load after base redefinition must be kept")
	}
}

func TestDeadWriteElimination(t *testing.T) {
	fr := NewOptimizer().Optimize(100, mkTrace(
		isa.Instr{Op: isa.Load, A: 1, B: 9, Imm: 0}, // dead: r1 overwritten below, never read
		isa.Instr{Op: isa.Load, A: 1, B: 9, Imm: 1}, // live: r1 read by the addi
		isa.Instr{Op: isa.AddI, A: 2, B: 1, Imm: 1}, // dead: r2 overwritten below, never read
		isa.Instr{Op: isa.AddI, A: 2, B: 3, Imm: 2}, // live: final write survives the trace
	))
	// Step 0 writes r1, step 1 overwrites r1 without an intervening read or
	// side exit: step 0 is dead. Step 2 writes r2 and step 3 overwrites r2
	// without a read: step 2 is dead.
	whys := eliminatedWhys(fr)
	if whys[0] != "dead-write" {
		t.Errorf("step 0 should be dead: %v", whys)
	}
	if whys[2] != "dead-write" {
		t.Errorf("step 2 should be dead: %v", whys)
	}
	if _, bad := whys[1]; bad {
		t.Error("read value must be live")
	}
}

func TestDeadWriteBlockedBySideExit(t *testing.T) {
	fr := NewOptimizer().Optimize(100, []dataflow.GuestStep{
		{PC: 100, In: isa.Instr{Op: isa.MovI, A: 1, Imm: 5}, Next: 101},
		{PC: 101, In: isa.Instr{Op: isa.Br, Cond: isa.Lt, A: 2, B: 3, Target: 500}, Next: 102},
		{PC: 102, In: isa.Instr{Op: isa.MovI, A: 1, Imm: 6}, Next: 103},
	})
	if fr.Steps[0].Eliminated {
		t.Error("write before a side exit must stay live (the exit may read it)")
	}
}

func TestOptimizerStatsAccumulate(t *testing.T) {
	o := NewOptimizer()
	o.Optimize(100, mkTrace(
		isa.Instr{Op: isa.Jmp, Target: 1},
		isa.Instr{Op: isa.MovI, A: 1, Imm: 1},
		isa.Instr{Op: isa.AddI, A: 2, B: 1, Imm: 1},
	))
	o.Optimize(200, mkTrace(
		isa.Instr{Op: isa.Jmp, Target: 2},
	))
	if o.JumpsRemoved != 2 {
		t.Errorf("JumpsRemoved = %d, want 2", o.JumpsRemoved)
	}
	if o.FoldedOps != 1 {
		t.Errorf("FoldedOps = %d, want 1", o.FoldedOps)
	}
}

// TestDisabledPassesDoNothing covers Config.DisableOptimizer, which leaves
// the system without an optimizer: a nil *Optimizer eliminates nothing, and
// a disabled system's fragments carry no eliminations.
func TestDisabledPassesDoNothing(t *testing.T) {
	var o *Optimizer
	fr := o.Optimize(100, mkTrace(
		isa.Instr{Op: isa.Jmp, Target: 1},
		isa.Instr{Op: isa.MovI, A: 1, Imm: 1},
		isa.Instr{Op: isa.Mov, A: 2, B: 1},
		isa.Instr{Op: isa.Load, A: 3, B: 0, Imm: 0},
		isa.Instr{Op: isa.Load, A: 4, B: 0, Imm: 0},
	))
	if fr.Eliminated != 0 {
		t.Errorf("eliminated = %d, want 0 with all passes off", fr.Eliminated)
	}

	cfg := DefaultConfig(SchemeNET, 50)
	cfg.DisableOptimizer = true
	sys := New(hotLoop(20_000), cfg)
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sys.cache) == 0 {
		t.Fatal("no fragments built")
	}
	for head, fr := range sys.cache {
		if fr.Eliminated != 0 {
			t.Errorf("fragment @%d: eliminated = %d, want 0", head, fr.Eliminated)
		}
	}
	if sys.OptimizerStats() != (Optimizer{}) {
		t.Errorf("disabled optimizer stats = %+v, want zero", sys.OptimizerStats())
	}
}

// TestAlu3AndAluImm checks the ALU semantics constant folding relies on:
// isa.Eval for the three-address forms and, with Imm as c, the immediate
// forms.
func TestAlu3AndAluImm(t *testing.T) {
	cases := []struct {
		op   isa.Op
		b, c int64
		want int64
	}{
		{isa.Add, 2, 3, 5}, {isa.Sub, 2, 3, -1}, {isa.Mul, 2, 3, 6},
		{isa.Div, 7, 2, 3}, {isa.Div, 7, 0, 0},
		{isa.Rem, 7, 2, 1}, {isa.Rem, 7, 0, 0},
		{isa.And, 6, 3, 2}, {isa.Or, 6, 3, 7}, {isa.Xor, 6, 3, 5},
		{isa.Shl, 1, 4, 16}, {isa.Shr, 16, 4, 1},
	}
	for _, cse := range cases {
		if got := isa.Eval(cse.op, cse.b, cse.c); got != cse.want {
			t.Errorf("Eval(%v, %d, %d) = %d, want %d", cse.op, cse.b, cse.c, got, cse.want)
		}
	}
	immCases := []struct {
		op     isa.Op
		b, imm int64
		want   int64
	}{
		{isa.AddI, 2, 3, 5}, {isa.MulI, 2, 3, 6}, {isa.AndI, 6, 3, 2},
		{isa.RemI, 7, 2, 1}, {isa.RemI, 7, 0, 0},
	}
	for _, cse := range immCases {
		if got := isa.Eval(cse.op, cse.b, cse.imm); got != cse.want {
			t.Errorf("Eval(%v, %d, imm %d) = %d, want %d", cse.op, cse.b, cse.imm, got, cse.want)
		}
	}
}

// TestSrcDestRegs checks the register roles the optimizer's passes rely
// on: Instr.Def for the written register and Instr.Uses for the read ones.
func TestSrcDestRegs(t *testing.T) {
	if d, ok := (isa.Instr{Op: isa.Load, A: 7}).Def(); !ok || d != 7 {
		t.Error("Load dest wrong")
	}
	if _, ok := (isa.Instr{Op: isa.Store}).Def(); ok {
		t.Error("Store has no dest")
	}
	if _, ok := (isa.Instr{Op: isa.Br}).Def(); ok {
		t.Error("Br has no dest")
	}
	if u := (isa.Instr{Op: isa.Store, A: 1, B: 2}).Uses(); u != 1<<1|1<<2 {
		t.Errorf("Store uses = %#b, want r1 and r2", u)
	}
	if (isa.Instr{Op: isa.MovI}).Uses() != 0 {
		t.Error("MovI reads nothing")
	}
	if _, ok := (isa.Instr{Op: isa.AddI}).Def(); !ok || !isa.AddI.IsALU() {
		t.Error("AddI is a pure register write")
	}
	if isa.Store.IsALU() {
		t.Error("Store is not a pure register write")
	}
}
