package vm

import (
	"fmt"
	"math"
	"testing"

	"netpath/internal/isa"
)

// stepOutcome is everything one instruction can change: the error, the
// control state, the register file, memory and the call stack.
type stepOutcome struct {
	err    string
	pc     int
	halted bool
	reg    [isa.NumRegs]int64
	mem    string
	depth  int
}

// stepReference executes p's first instruction once on the reference
// engine from the given registers, over memory filled with 1000+i.
func stepReference(m *Machine, regs [isa.NumRegs]int64) stepOutcome {
	m.Reset()
	m.SetEngine(EngineLegacy)
	m.Reg = regs
	for i := range m.Mem {
		m.Mem[i] = 1000 + int64(i)
	}
	var o stepOutcome
	if err := m.Step(); err != nil {
		o.err = err.Error()
	}
	o.pc, o.halted, o.reg, o.depth = m.PC, m.Halted, m.Reg, m.CallDepth()
	o.mem = fmt.Sprint(m.Mem)
	return o
}

// TestSharedSemanticsMatchReference checks the ISA's shared definition of
// instruction semantics — isa.Eval for what an ALU op computes, Instr.Def
// for what it writes and Instr.Uses for what it reads, which the optimizer,
// the dataflow analyses and the validators all use — against one step of
// the reference engine, for every opcode over edge operands. Def and Uses
// are checked by perturbing registers: a register outside Uses must not
// influence the outcome, every register in Uses must influence it for some
// input, only Def may change and it must change for some input, and Def's
// final value must not depend on its initial one.
func TestSharedSemanticsMatchReference(t *testing.T) {
	operands := [][2]int64{
		{2, 3}, {7, 2}, {6, 3}, {16, 4}, {-7, 2}, {7, -2}, // ordinary
		{7, 0}, {0, 0}, // divisor zero
		{math.MinInt64, -1}, {math.MaxInt64, 2}, // overflow
		{1, 63}, {-16, 64}, {1, -1}, {-5, 65}, // shift counts
	}
	imms := []int64{3, 2, 0, -1, -5, 63, 64, math.MinInt64}
	// (A, B, C) register layouts: distinct, and the all-low aliasing form
	// of zero-valued fields.
	layouts := [][3]uint8{{1, 2, 3}, {7, 0, 0}}
	// Expected results pinned independently of isa.Eval.
	pinned := []struct {
		op   isa.Op
		b, c int64
		want int64
	}{
		{isa.Add, 2, 3, 5}, {isa.Sub, 2, 3, -1}, {isa.Mul, 2, 3, 6},
		{isa.Div, 7, 2, 3}, {isa.Div, 7, 0, 0}, {isa.Div, math.MinInt64, -1, math.MinInt64},
		{isa.Rem, 7, 2, 1}, {isa.Rem, 7, 0, 0}, {isa.Rem, math.MinInt64, -1, 0},
		{isa.And, 6, 3, 2}, {isa.Or, 6, 3, 7}, {isa.Xor, 6, 3, 5},
		{isa.Shl, 1, 4, 16}, {isa.Shr, 16, 4, 1}, {isa.Shl, 1, 63, math.MinInt64},
		{isa.Shl, 1, 64, 1}, {isa.Shr, -16, 64, -16}, {isa.Shr, math.MinInt64, -1, -1},
		{isa.AddI, 2, 3, 5}, {isa.MulI, 2, 3, 6}, {isa.AndI, 6, 3, 2},
		{isa.RemI, 7, 2, 1}, {isa.RemI, 7, 0, 0}, {isa.RemI, -7, -5, -2},
		{isa.MovI, 9, -5, -5}, {isa.Mov, 9, -5, 9},
	}
	for _, pc := range pinned {
		if got := isa.Eval(pc.op, pc.b, pc.c); got != pc.want {
			t.Errorf("isa.Eval(%v, %d, %d) = %d, want %d", pc.op, pc.b, pc.c, got, pc.want)
		}
	}

	for op := isa.Op(0); op.Valid(); op++ {
		var influenced uint32          // registers seen to influence some outcome
		var declared uint32            // union of Uses over distinct-register cases
		defined, wrote := false, false // Def claimed; Def register seen changing
		for _, l := range layouts {
			for _, imm := range imms {
				in := isa.Instr{Op: op, Cond: isa.Lt, A: l[0], B: l[1], C: l[2], Imm: imm, Target: 2}
				m := New(rawProgram([]isa.Instr{in, {Op: isa.Halt}, {Op: isa.Halt}}, 8))
				uses := in.Uses()
				if l == layouts[0] {
					// x-x, x%x and x^x make aliased operands inert, so
					// only distinct registers must each influence.
					declared |= uses
				}
				def, hasDef := in.Def()
				defined = defined || hasDef
				for _, bc := range operands {
					var regs [isa.NumRegs]int64
					for r := range regs {
						regs[r] = 100 + int64(r)
					}
					regs[in.A] = 0x5a5a
					regs[in.B] = bc[0]
					regs[in.C] = bc[1]
					tag := fmt.Sprintf("%v (b=%d c=%d imm=%d)", in, regs[in.B], regs[in.C], imm)
					base := stepReference(m, regs)

					if op.IsALU() {
						c := imm
						if op >= isa.Add && op <= isa.Shr { // three-address forms
							c = regs[in.C]
						}
						if want := isa.Eval(op, regs[in.B], c); base.err != "" || base.reg[in.A] != want {
							t.Errorf("%s: engine wrote %d (err %q), isa.Eval says %d", tag, base.reg[in.A], base.err, want)
						}
						if got := in.Result(&regs); got != base.reg[in.A] {
							t.Errorf("%s: Instr.Result = %d, engine wrote %d", tag, got, base.reg[in.A])
						}
					}
					for r := range regs {
						if base.reg[r] == regs[r] {
							continue
						}
						if !hasDef || uint8(r) != def {
							t.Errorf("%s: r%d changed but Def = (%d, %v)", tag, r, def, hasDef)
						}
						wrote = true
					}

					for r := uint8(0); r < isa.NumRegs; r++ {
						for _, v := range []int64{regs[r] + 1, regs[r] ^ 0x3c3c, 0, -1, 5, math.MinInt64, math.MaxInt64} {
							if v == regs[r] {
								continue
							}
							pert := regs
							pert[r] = v
							got := stepReference(m, pert)
							if written := hasDef && r == def && base.err == "" && got.err == ""; !written {
								got.reg[r] = base.reg[r] // the perturbed input itself
							}
							if got == base {
								continue
							}
							influenced |= 1 << r
							if uses&(1<<r) == 0 {
								t.Errorf("%s: r%d=%d changes the outcome but Uses = %032b", tag, r, v, uses)
							}
						}
					}
				}
			}
		}
		if defined && !wrote {
			t.Errorf("%v: Def claims a write the engine never made", op)
		}
		if missing := declared &^ influenced; missing != 0 {
			t.Errorf("%v: Uses declares %032b but those registers never influenced a step", op, missing)
		}
	}
}
