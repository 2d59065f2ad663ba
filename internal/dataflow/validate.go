// Translation validation of the tier-1 and tier-2 compilers.
//
// The hot-path pipeline compiles twice: the tier-1 optimizer rewrites a
// recorded trace into a fragment (eliminating instructions the emitted code
// would not contain), and the tier-2 compiler lowers a fragment chain into a
// superblock of host micro-ops, dropping guards and bounds checks the
// dataflow analysis proved redundant. Both are translation steps, and both
// are validated here before anything is published: the validator re-derives
// every claim from the guest instruction sequence itself, independently of
// the compiler that made it. A compiled artifact whose effect on (registers,
// memory, stack, exits) is not provably identical to per-step execution of
// its guest sequence is rejected.
//
// The superblock validator does not trust compiler metadata. It recovers
// each micro-op's semantics from its bound handler function pointer
// (vm.Superblock.Ops) and symbolically executes the guest spec alongside,
// proving at each op that the handler's fields spell exactly the guest
// instruction, that every guest step the compiler skipped is individually
// justified (structurally, by a still-live guard, or by the symbolic range
// state), and that every elided bounds check re-proves from the entry state
// the block's own guards admit.
package dataflow

import (
	"fmt"

	"netpath/internal/isa"
	"netpath/internal/vm"
)

// sbFact identifies a branch outcome known to hold at a point in the walk:
// condition, operand form, and required direction. It mirrors the compiler's
// guard-fact key exactly on purpose — the validator must accept everything a
// correct compiler emits — but it is maintained by independent code.
type sbFact struct {
	a, b   uint8
	useImm bool
	want   bool
	cond   isa.Cond
	imm    int64
}

func factOfGuard(g vm.SBGuardInfo) sbFact {
	return sbFact{a: g.A, b: g.B, useImm: g.UseImm, want: g.Want, cond: g.Cond, imm: g.Imm}
}

// sbWalk is the symbolic state threaded through a superblock validation:
// the register range state plus the set of live guard facts.
type sbWalk struct {
	st    RangeState
	facts map[sbFact]bool
}

// write records a register write: the range transfer is applied by the
// caller; this invalidates facts that read the register.
func (w *sbWalk) invalidate(r uint8) {
	for f := range w.facts {
		if f.a == r || (!f.useImm && f.b == r) {
			delete(w.facts, f)
		}
	}
}

// transfer applies one guest instruction to the walk state. Unlike the
// whole-program range transfer, Call/CallInd do not clobber registers: the
// callee's steps are on the trace and transfer individually.
func (w *sbWalk) transfer(in isa.Instr) {
	switch in.Op {
	case isa.Call, isa.CallInd:
		// No register effect on this machine (return address goes to the
		// call stack); the callee body is part of the trace.
	default:
		rangeTransferInstr(&w.st, in)
	}
	if r, ok := in.Def(); ok {
		w.invalidate(r)
	}
}

// refineBranch narrows the walk state by a branch known to have resolved in
// direction taken. An infeasible refinement (the state says this direction
// cannot happen) leaves the state unrefined — conservative, never unsound.
func (w *sbWalk) refineBranch(in isa.Instr, taken bool) {
	switch in.Op {
	case isa.Br:
		if na, nb, ok := refineCond(w.st.Reg[in.A], w.st.Reg[in.B], in.Cond, taken); ok {
			w.st.Reg[in.A], w.st.Reg[in.B] = na, nb
		}
	case isa.BrI:
		if na, _, ok := refineCond(w.st.Reg[in.A], Point(in.Imm), in.Cond, taken); ok {
			w.st.Reg[in.A] = na
		}
	}
}

// provenInBounds reports that the memory access base+imm is inside
// [0, memSize) for every register state the walk admits.
func (w *sbWalk) provenInBounds(base uint8, imm, memSize int64) bool {
	addr := addIv(w.st.Reg[base], Point(imm))
	return !addr.IsFull() && addr.Within(0, memSize-1)
}

// checkPath verifies a recorded guest sequence of n steps is a legal
// execution path of the program: recorded instructions match the image,
// successors are legal for each opcode, and consecutive steps chain. step
// returns step i's pc, instruction and recorded successor. A sequence that
// fails here was corrupted between recording and compilation (or recorded
// against a different program) — nothing downstream is meaningful. Tier-1
// fragments and tier-2 superblock specs share this check.
func checkPath(f *Facts, n int, step func(i int) (pc int, in isa.Instr, next int)) error {
	p := f.Prog
	for i := 0; i < n; i++ {
		pc, in, next := step(i)
		if pc < 0 || pc >= p.Len() {
			return fmt.Errorf("step %d: pc %d outside program", i, pc)
		}
		if next < 0 || next >= p.Len() {
			return fmt.Errorf("step %d: successor %d outside program", i, next)
		}
		if in != p.Instrs[pc] {
			return fmt.Errorf("step %d: recorded instruction at pc %d does not match program image", i, pc)
		}
		if err := legalSuccessor(f, in, pc, next); err != nil {
			return fmt.Errorf("step %d: %w", i, err)
		}
		if i+1 < n {
			if npc, _, _ := step(i + 1); next != npc {
				return fmt.Errorf("step %d: successor %d does not chain to step %d at pc %d", i, next, i+1, npc)
			}
		}
	}
	return nil
}

// legalSuccessor checks that next is a successor the instruction at pc can
// actually produce. For indirect transfers the target set is constrained by
// the machine (block entries for JmpInd, function entries for CallInd,
// return sites for Ret); anything else is a trace no execution produced.
func legalSuccessor(f *Facts, in isa.Instr, pc, next int) error {
	p := f.Prog
	switch in.Op {
	case isa.Halt:
		return fmt.Errorf("halt at pc %d cannot appear in a trace", pc)
	case isa.Jmp:
		if next != int(in.Target) {
			return fmt.Errorf("jmp successor %d != target %d", next, in.Target)
		}
	case isa.Br, isa.BrI:
		if next != int(in.Target) && next != pc+1 {
			return fmt.Errorf("branch successor %d matches neither target %d nor fallthrough %d", next, in.Target, pc+1)
		}
	case isa.Call:
		if next != int(in.Target) {
			return fmt.Errorf("call successor %d != target %d", next, in.Target)
		}
	case isa.Ret:
		if next == 0 || (p.Instrs[next-1].Op != isa.Call && p.Instrs[next-1].Op != isa.CallInd) {
			return fmt.Errorf("ret successor %d is not a call continuation", next)
		}
	case isa.JmpInd:
		if bi := p.BlockAt(next); bi < 0 || p.Blocks[bi].Start != next {
			return fmt.Errorf("jmpind successor %d is not a block entry", next)
		}
	case isa.CallInd:
		if fi := p.FuncOf(next); fi < 0 || p.Funcs[fi].Entry != next {
			return fmt.Errorf("callind successor %d is not a function entry", next)
		}
	default:
		if next != pc+1 {
			return fmt.Errorf("straight-line successor %d != pc+1", next)
		}
	}
	return nil
}

// skipJustified proves the compiler was entitled to emit nothing for the
// guest step at index g: the step must be control-only (no architectural
// effect beyond choosing the recorded successor) and its choice must be
// forced — structurally, by a guard fact still live on the walk, or by the
// symbolic range state deciding the branch.
func skipJustified(w *sbWalk, step *vm.SBStep) error {
	in := step.In
	switch in.Op {
	case isa.Nop:
		return nil
	case isa.Jmp:
		return nil // successor == target checked by checkPath
	case isa.Br, isa.BrI:
		pc := int(step.PC)
		if int(in.Target) == pc+1 {
			return nil // both outcomes share the successor
		}
		want := int(step.Next) == int(in.Target)
		fact := sbFact{a: in.A, useImm: in.Op == isa.BrI, want: want, cond: in.Cond}
		if fact.useImm {
			fact.imm = in.Imm
		} else {
			fact.b = in.B
		}
		if w.facts[fact] {
			return nil
		}
		var taken, ok bool
		if in.Op == isa.Br {
			taken, ok = condDecide(w.st.Reg[in.A], w.st.Reg[in.B], in.Cond)
		} else {
			taken, ok = condDecide(w.st.Reg[in.A], Point(in.Imm), in.Cond)
		}
		if ok && taken == want {
			return nil
		}
		if ok && taken != want {
			return fmt.Errorf("skipped branch at pc %d: symbolic state decides the opposite direction", pc)
		}
		return fmt.Errorf("skipped branch at pc %d: direction not provable", pc)
	}
	return fmt.Errorf("step at pc %d (%v) compiled to nothing but has architectural effect", step.PC, in.Op)
}

// advanceSkip justifies and applies one skipped guest step.
func advanceSkip(w *sbWalk, step *vm.SBStep) error {
	if err := skipJustified(w, step); err != nil {
		return err
	}
	if in := step.In; in.Op == isa.Br || in.Op == isa.BrI {
		w.refineBranch(in, int(step.Next) == int(in.Target))
	}
	w.transfer(step.In)
	return nil
}

// matchGuard checks a guard op's operand fields and recorded direction
// against the branch instruction it claims to implement, then records the
// outcome as a live fact and refines the walk.
func matchGuard(w *sbWalk, step *vm.SBStep, in isa.Instr,
	useImm bool, cond isa.Cond, flag bool, a, b uint8, imm int64) error {
	if useImm != (in.Op == isa.BrI) {
		return fmt.Errorf("guard operand form does not match %v", in.Op)
	}
	if cond != in.Cond {
		return fmt.Errorf("guard condition %v != guest condition %v", cond, in.Cond)
	}
	want := int(step.Next) == int(in.Target)
	if flag != want {
		return fmt.Errorf("guard direction %v contradicts recorded successor", flag)
	}
	if a != in.A {
		return fmt.Errorf("guard lhs register r%d != guest r%d", a, in.A)
	}
	if useImm {
		if imm != in.Imm {
			return fmt.Errorf("guard immediate %d != guest immediate %d", imm, in.Imm)
		}
	} else if b != in.B {
		return fmt.Errorf("guard rhs register r%d != guest r%d", b, in.B)
	}
	fact := sbFact{a: in.A, useImm: useImm, want: want, cond: in.Cond}
	if useImm {
		fact.imm = in.Imm
	} else {
		fact.b = in.B
	}
	w.facts[fact] = true
	w.refineBranch(in, want)
	w.transfer(in)
	return nil
}

// matchStraightFields checks that a handler's first-sub-op operand fields
// spell the guest instruction exactly.
func matchStraightFields(op *vm.SBOpInfo, in isa.Instr) error {
	if op.Op != in.Op {
		return fmt.Errorf("handler implements %v, guest is %v", op.Op, in.Op)
	}
	if op.A != in.A || op.B != in.B || op.C != in.C || op.Imm != in.Imm {
		return fmt.Errorf("%v operand fields differ from guest", in.Op)
	}
	return nil
}

// ValidateSuperblock proves the compiled superblock sb architecturally
// equivalent to per-step execution of the guest spec it was compiled from.
// f supplies the program image and the whole-program range analysis used to
// seed the entry state; sb's own hoisted guards refine it further. A nil
// error means every micro-op was matched to its guest steps, every skipped
// step was independently justified, and every elided check was re-proven.
func ValidateSuperblock(f *Facts, spec []vm.SBStep, sb *vm.Superblock) error {
	if f == nil || f.Prog == nil {
		return fmt.Errorf("dataflow: validate superblock: no program facts")
	}
	n := len(spec)
	if n == 0 {
		return fmt.Errorf("dataflow: validate superblock: empty spec")
	}
	if sb.NGuest() != n {
		return fmt.Errorf("dataflow: validate superblock: covers %d guest steps, spec has %d", sb.NGuest(), n)
	}
	if err := checkPath(f, n, func(i int) (int, isa.Instr, int) {
		return int(spec[i].PC), spec[i].In, int(spec[i].Next)
	}); err != nil {
		return fmt.Errorf("dataflow: validate superblock: spec: %w", err)
	}
	if got, want := int(sb.ExitPC()), int(spec[n-1].Next); got != want {
		return fmt.Errorf("dataflow: validate superblock: exit pc %d != recorded successor %d", got, want)
	}

	// Entry state: what the analysis knows at the head address, narrowed to
	// the register states the hoisted entry guards admit. Executions the
	// guards turn away never run the body, so assuming the guards here is
	// exact, not optimistic.
	w := &sbWalk{st: topRangeState(), facts: map[sbFact]bool{}}
	if er, ok := f.EntryRange(int(spec[0].PC)); ok {
		w.st = er
	}
	for _, g := range sb.Guards() {
		if g.UseImm {
			if na, _, ok := refineCond(w.st.Reg[g.A], Point(g.Imm), g.Cond, g.Want); ok {
				w.st.Reg[g.A] = na
			}
		} else {
			if na, nb, ok := refineCond(w.st.Reg[g.A], w.st.Reg[g.B], g.Cond, g.Want); ok {
				w.st.Reg[g.A], w.st.Reg[g.B] = na, nb
			}
		}
		w.facts[factOfGuard(g)] = true
	}

	ops := sb.Ops()
	memSize := int64(f.Prog.MemSize)
	oi := 0
	for g := 0; g < n; {
		if oi < len(ops) && int(ops[oi].Guest) == g {
			consumed, err := checkOp(w, f, spec, &ops[oi], g, memSize)
			if err != nil {
				return fmt.Errorf("dataflow: validate superblock: op %d (guest %d, pc %d): %w", oi, g, spec[g].PC, err)
			}
			oi++
			g = consumed
			continue
		}
		if oi < len(ops) && int(ops[oi].Guest) < g {
			return fmt.Errorf("dataflow: validate superblock: op %d targets guest %d already passed", oi, ops[oi].Guest)
		}
		if err := advanceSkip(w, &spec[g]); err != nil {
			return fmt.Errorf("dataflow: validate superblock: guest %d: %w", g, err)
		}
		g++
	}
	if oi != len(ops) {
		return fmt.Errorf("dataflow: validate superblock: %d trailing micro-ops beyond the guest spec", len(ops)-oi)
	}
	return nil
}

// checkOp validates one micro-op against the guest step(s) it covers and
// advances the walk. It returns the next uncovered guest index.
func checkOp(w *sbWalk, f *Facts, spec []vm.SBStep, op *vm.SBOpInfo, g int, memSize int64) (int, error) {
	step := &spec[g]
	in := step.In
	if op.PC != step.PC {
		return 0, fmt.Errorf("handler pc %d != guest pc %d", op.PC, step.PC)
	}

	// fused advances past the intermediate skipped steps to the second
	// guest index, justifying each one, and returns its step.
	fused := func() (*vm.SBStep, error) {
		g2 := int(op.Guest2)
		if g2 <= g || g2 >= len(spec) {
			return nil, fmt.Errorf("fused second guest index %d out of order", g2)
		}
		for k := g + 1; k < g2; k++ {
			if err := advanceSkip(w, &spec[k]); err != nil {
				return nil, fmt.Errorf("between fused halves, guest %d: %w", k, err)
			}
		}
		st2 := &spec[g2]
		if op.PC2 != st2.PC {
			return nil, fmt.Errorf("fused second pc %d != guest pc %d", op.PC2, st2.PC)
		}
		if op.Next != st2.Next {
			return nil, fmt.Errorf("fused successor %d != recorded %d", op.Next, st2.Next)
		}
		return st2, nil
	}

	switch op.Kind {
	case vm.SBOpStraight:
		if err := matchStraightFields(op, in); err != nil {
			return 0, err
		}
		if op.Next != step.Next {
			return 0, fmt.Errorf("successor %d != recorded %d", op.Next, step.Next)
		}
		if op.NoCheck && !w.provenInBounds(in.B, in.Imm, memSize) {
			return 0, fmt.Errorf("elided bounds check on %v not re-provable (base r%d in %v)", in.Op, in.B, w.st.Reg[in.B])
		}
		w.transfer(in)
		return g + 1, nil

	case vm.SBOpGuard:
		if in.Op != isa.Br && in.Op != isa.BrI {
			return 0, fmt.Errorf("guard handler over non-branch %v", in.Op)
		}
		if err := matchGuard(w, step, in, op.UseImm, op.Cond, op.Flag, op.A, op.B, op.Imm); err != nil {
			return 0, err
		}
		return g + 1, nil

	case vm.SBOpCall:
		if in.Op != isa.Call {
			return 0, fmt.Errorf("call handler over %v", in.Op)
		}
		w.transfer(in)
		return g + 1, nil

	case vm.SBOpRet:
		if in.Op != isa.Ret {
			return 0, fmt.Errorf("ret handler over %v", in.Op)
		}
		if op.Next != step.Next {
			return 0, fmt.Errorf("ret fast-path successor %d != recorded %d", op.Next, step.Next)
		}
		w.transfer(in)
		return g + 1, nil

	case vm.SBOpJmpInd:
		if in.Op != isa.JmpInd {
			return 0, fmt.Errorf("jmpind handler over %v", in.Op)
		}
		if op.A != in.A {
			return 0, fmt.Errorf("jmpind register r%d != guest r%d", op.A, in.A)
		}
		if op.Next != step.Next {
			return 0, fmt.Errorf("jmpind fast-path successor %d != recorded %d", op.Next, step.Next)
		}
		w.transfer(in)
		return g + 1, nil

	case vm.SBOpCallInd:
		if in.Op != isa.CallInd {
			return 0, fmt.Errorf("callind handler over %v", in.Op)
		}
		if op.A != in.A {
			return 0, fmt.Errorf("callind register r%d != guest r%d", op.A, in.A)
		}
		if op.Next != step.Next {
			return 0, fmt.Errorf("callind fast-path successor %d != recorded %d", op.Next, step.Next)
		}
		w.transfer(in)
		return g + 1, nil

	case vm.SBOpLoadAlu:
		if in.Op != isa.Load {
			return 0, fmt.Errorf("load+alu handler but first guest op is %v", in.Op)
		}
		if err := matchStraightFields(op, in); err != nil {
			return 0, err
		}
		if op.NoCheck && !w.provenInBounds(in.B, in.Imm, memSize) {
			return 0, fmt.Errorf("elided load bounds check not re-provable (base r%d in %v)", in.B, w.st.Reg[in.B])
		}
		w.transfer(in)
		st2, err := fused()
		if err != nil {
			return 0, err
		}
		in2 := st2.In
		if op.Op2 != in2.Op {
			return 0, fmt.Errorf("fused alu implements %v, guest is %v", op.Op2, in2.Op)
		}
		if op.A2 != in2.A || op.B2 != in2.B || op.C2 != in2.C || op.Imm2 != in2.Imm {
			return 0, fmt.Errorf("fused %v operand fields differ from guest", in2.Op)
		}
		w.transfer(in2)
		return int(op.Guest2) + 1, nil

	case vm.SBOpAluStore:
		if op.Op != in.Op {
			return 0, fmt.Errorf("alu+store handler implements %v, guest is %v", op.Op, in.Op)
		}
		if op.A != in.A || op.B != in.B || op.C != in.C || op.Imm != in.Imm {
			return 0, fmt.Errorf("%v operand fields differ from guest", in.Op)
		}
		w.transfer(in)
		st2, err := fused()
		if err != nil {
			return 0, err
		}
		in2 := st2.In
		if in2.Op != isa.Store || op.Op2 != isa.Store {
			return 0, fmt.Errorf("alu+store second guest op is %v", in2.Op)
		}
		if op.A2 != in2.A || op.B2 != in2.B || op.Imm2 != in2.Imm {
			return 0, fmt.Errorf("fused store operand fields differ from guest")
		}
		// The store's address uses the post-ALU register state, which the
		// walk has already applied.
		if op.NoCheck && !w.provenInBounds(in2.B, in2.Imm, memSize) {
			return 0, fmt.Errorf("elided store bounds check not re-provable (base r%d in %v)", in2.B, w.st.Reg[in2.B])
		}
		w.transfer(in2)
		return int(op.Guest2) + 1, nil

	case vm.SBOpAluGuard:
		if op.Op != in.Op {
			return 0, fmt.Errorf("alu+guard handler implements %v, guest is %v", op.Op, in.Op)
		}
		if op.A != in.A || op.B != in.B || op.C != in.C || op.Imm != in.Imm {
			return 0, fmt.Errorf("%v operand fields differ from guest", in.Op)
		}
		w.transfer(in)
		st2, err := fused()
		if err != nil {
			return 0, err
		}
		in2 := st2.In
		if in2.Op != isa.Br && in2.Op != isa.BrI {
			return 0, fmt.Errorf("alu+guard second guest op is %v", in2.Op)
		}
		if err := matchGuard(w, st2, in2, op.UseImm, op.Cond, op.Flag, op.A2, op.B2, op.Imm2); err != nil {
			return 0, err
		}
		return int(op.Guest2) + 1, nil
	}
	return 0, fmt.Errorf("handler not in the registry (kind invalid)")
}
