// Predecoded direct-threaded execution engine.
//
// At construction the machine translates its program into a flat array of
// micro-ops: one handler func per instruction with the operand fields,
// immediates and successor links already unpacked. Checks that depend only
// on the instruction bytes — register operands, opcode validity, static
// branch targets — are hoisted to decode time: a structurally invalid
// instruction predecodes to a handler that raises the exact fault the
// legacy engine would, so it still faults only if it executes. Checks that
// depend on runtime values (memory bounds, div/rem by zero, indirect
// targets, stack depth) stay in the handlers.
//
// Dispatch is threaded through successor pointers: each handler returns the
// next micro-op to execute (nil to stop), so the hot loop is one indirect
// call plus a nil test per instruction — it carries no PC, no bounds check,
// and no per-step Halted/fault-hook/register re-validation. Handlers that
// halt or fault park the error in m.trap and return nil; settleExec
// resolves that cold path identically to the legacy engine.
package vm

import (
	"fmt"

	"netpath/internal/isa"
	"netpath/internal/prog"
)

// stop is returned by execAt when the executed micro-op halted or faulted
// the machine instead of producing a next PC. It is negative so callers
// that bounds-check the next PC take their existing cold path.
const stop = -1

// uop is one predecoded micro-op. fn interprets the remaining fields; pc is
// the instruction's own address (fault messages, branch events, return
// addresses) and target is the numeric decode-resolved successor (direct
// branch/call target for control ops, pc+1 for straight-line ops), kept for
// events and fault messages.
//
// next and alt are the threaded successor links: next is the primary
// successor (fallthrough for straight-line ops, taken target for direct
// control), alt is the not-taken successor of conditional branches. A
// statically out-of-range successor predecodes to a nil link (direct
// control, which tests its link) or to a cold fall-off-the-end handler
// (straight-line ops, which don't), so valid instructions pay nothing.
type uop struct {
	fn      uopFn
	next    *uop
	alt     *uop
	imm     int64
	target  int32
	pc      int32
	a, b, c uint8
	op      isa.Op
}

// uopFn executes one micro-op and returns the next one, or nil when the
// machine halted, faulted, or left the program. Handlers do not touch m.PC
// or m.Steps — the dispatch loop owns both.
type uopFn func(m *Machine, u *uop) *uop

// trapf parks a fault raised inside a micro-op handler and halts the
// machine; settleExec delivers it. Handlers return nil after calling it so
// the dispatch loop stops — it runs at most once per execution.
//
//netpathvet:cold
func (m *Machine) trapf(kind FaultKind, pc int32, format string, args ...any) *uop {
	m.Halted = true
	countFault(kind)
	if m.faultObs != nil {
		m.faultObs(kind, int(pc))
	}
	m.trap = &Fault{Kind: kind, PC: int(pc), Msg: fmt.Sprintf(format, args...)}
	return nil
}

// predecode lowers a program to its micro-op array. It never fails:
// malformed instructions (hand-assembled or fuzzed images that bypass
// prog.Validate) decode to fault thunks carrying the legacy engine's
// messages, and branch events are still emitted before an out-of-range
// transfer faults, exactly as the legacy engine orders them.
func predecode(p *prog.Program) []uop {
	n := len(p.Instrs)
	ops := make([]uop, n)
	link := func(t int) *uop {
		if t >= 0 && t < n {
			return &ops[t]
		}
		return nil
	}
	for pc := range p.Instrs {
		in := &p.Instrs[pc]
		u := &ops[pc]
		u.a, u.b, u.c = in.A, in.B, in.C
		u.op = in.Op
		u.imm = in.Imm
		u.pc = int32(pc)
		switch {
		// The legacy engine validates register operands before decoding the
		// opcode (and without counting the step), even for opcodes that read
		// no registers — keep that priority.
		case int(in.A|in.B|in.C) >= isa.NumRegs:
			u.fn = opBadRegister
		case !in.Op.Valid():
			u.fn = opBadOpcode
		case in.Op == isa.Br:
			u.target = in.Target
			u.next = link(int(in.Target))
			u.alt = link(pc + 1)
			u.fn = brFns[condIndex(in.Cond)]
		case in.Op == isa.BrI:
			u.target = in.Target
			u.next = link(int(in.Target))
			u.alt = link(pc + 1)
			u.fn = briFns[condIndex(in.Cond)]
		case in.Op == isa.Jmp || in.Op == isa.Call:
			u.target = in.Target
			u.next = link(int(in.Target))
			u.fn = dispatch[in.Op]
		case in.Op == isa.JmpInd || in.Op == isa.CallInd || in.Op == isa.Ret || in.Op == isa.Halt:
			u.target = int32(pc + 1)
			u.fn = dispatch[in.Op]
		default:
			// Straight-line op. A nil fallthrough can only happen at the
			// last instruction; the cold variant applies the op's effect and
			// then faults the transfer, so hot handlers skip the nil test.
			u.target = int32(pc + 1)
			u.next = link(pc + 1)
			u.fn = dispatch[in.Op]
			if u.next == nil {
				u.fn = opFallOffEnd
			}
		}
	}
	return ops
}

// condIndex maps a condition to its specialized-handler slot; invalid
// conditions share a never-taken slot, matching Cond.Eval's false result.
func condIndex(c isa.Cond) int {
	if c.Valid() {
		return int(c)
	}
	return int(isa.Ge) + 1
}

// dispatch maps opcodes to handlers; indexed only for valid opcodes.
// Br/BrI slots are nil — predecode resolves them per condition.
var dispatch [256]uopFn

func init() {
	dispatch[isa.Nop] = opNop
	dispatch[isa.MovI] = opMovI
	dispatch[isa.Mov] = opMov
	dispatch[isa.Add] = opAdd
	dispatch[isa.Sub] = opSub
	dispatch[isa.Mul] = opMul
	dispatch[isa.Div] = opDiv
	dispatch[isa.Rem] = opRem
	dispatch[isa.And] = opAnd
	dispatch[isa.Or] = opOr
	dispatch[isa.Xor] = opXor
	dispatch[isa.Shl] = opShl
	dispatch[isa.Shr] = opShr
	dispatch[isa.AddI] = opAddI
	dispatch[isa.MulI] = opMulI
	dispatch[isa.AndI] = opAndI
	dispatch[isa.RemI] = opRemI
	dispatch[isa.Load] = opLoad
	dispatch[isa.Store] = opStore
	dispatch[isa.Jmp] = opJmp
	dispatch[isa.JmpInd] = opJmpInd
	dispatch[isa.Call] = opCall
	dispatch[isa.CallInd] = opCallInd
	dispatch[isa.Ret] = opRet
	dispatch[isa.Halt] = opHalt
}

func opNop(m *Machine, u *uop) *uop  { return u.next }
func opMovI(m *Machine, u *uop) *uop { m.Reg[u.a] = u.imm; return u.next }
func opMov(m *Machine, u *uop) *uop  { m.Reg[u.a] = m.Reg[u.b]; return u.next }
func opAdd(m *Machine, u *uop) *uop  { m.Reg[u.a] = m.Reg[u.b] + m.Reg[u.c]; return u.next }
func opSub(m *Machine, u *uop) *uop  { m.Reg[u.a] = m.Reg[u.b] - m.Reg[u.c]; return u.next }
func opMul(m *Machine, u *uop) *uop  { m.Reg[u.a] = m.Reg[u.b] * m.Reg[u.c]; return u.next }

func opDiv(m *Machine, u *uop) *uop {
	if d := m.Reg[u.c]; d != 0 {
		m.Reg[u.a] = m.Reg[u.b] / d
	} else {
		m.Reg[u.a] = 0
	}
	return u.next
}

func opRem(m *Machine, u *uop) *uop {
	if d := m.Reg[u.c]; d != 0 {
		m.Reg[u.a] = m.Reg[u.b] % d
	} else {
		m.Reg[u.a] = 0
	}
	return u.next
}

func opAnd(m *Machine, u *uop) *uop { m.Reg[u.a] = m.Reg[u.b] & m.Reg[u.c]; return u.next }
func opOr(m *Machine, u *uop) *uop  { m.Reg[u.a] = m.Reg[u.b] | m.Reg[u.c]; return u.next }
func opXor(m *Machine, u *uop) *uop { m.Reg[u.a] = m.Reg[u.b] ^ m.Reg[u.c]; return u.next }

func opShl(m *Machine, u *uop) *uop {
	m.Reg[u.a] = m.Reg[u.b] << (uint(m.Reg[u.c]) & 63)
	return u.next
}

func opShr(m *Machine, u *uop) *uop {
	m.Reg[u.a] = m.Reg[u.b] >> (uint(m.Reg[u.c]) & 63)
	return u.next
}

func opAddI(m *Machine, u *uop) *uop { m.Reg[u.a] = m.Reg[u.b] + u.imm; return u.next }
func opMulI(m *Machine, u *uop) *uop { m.Reg[u.a] = m.Reg[u.b] * u.imm; return u.next }
func opAndI(m *Machine, u *uop) *uop { m.Reg[u.a] = m.Reg[u.b] & u.imm; return u.next }

func opRemI(m *Machine, u *uop) *uop {
	if u.imm != 0 {
		m.Reg[u.a] = m.Reg[u.b] % u.imm
	} else {
		m.Reg[u.a] = 0
	}
	return u.next
}

func opLoad(m *Machine, u *uop) *uop {
	a := m.Reg[u.b] + u.imm
	// One unsigned compare covers both negative and too-large addresses.
	if uint64(a) >= uint64(len(m.Mem)) {
		return m.trapf(FaultMemOOB, u.pc, "vm: memory access %d out of range [0,%d) at pc %d", a, len(m.Mem), u.pc)
	}
	m.Reg[u.a] = m.Mem[a]
	return u.next
}

func opStore(m *Machine, u *uop) *uop {
	a := m.Reg[u.b] + u.imm
	if uint64(a) >= uint64(len(m.Mem)) {
		return m.trapf(FaultMemOOB, u.pc, "vm: memory access %d out of range [0,%d) at pc %d", a, len(m.Mem), u.pc)
	}
	m.Mem[a] = m.Reg[u.a]
	return u.next
}

// badTransfer raises the out-of-range control transfer fault, after the
// branch event for the attempted transfer has already been emitted.
func (m *Machine) badTransfer(pc int32, target int) *uop {
	m.badTarget = target
	return m.trapf(FaultBadPC, pc, "vm: control transfer to %d out of range at pc %d", target, pc)
}

func opJmp(m *Machine, u *uop) *uop {
	m.branch(int(u.pc), int(u.target), true, isa.KindJump)
	if u.next == nil {
		return m.badTransfer(u.pc, int(u.target))
	}
	return u.next
}

// Conditional branch handlers are specialized per condition so the hot loop
// skips Cond.Eval's switch. brFns/briFns are indexed by condIndex; the
// final slot handles invalid conditions (never taken, like Eval).
var brFns = [7]uopFn{opBrEq, opBrNe, opBrLt, opBrLe, opBrGt, opBrGe, opBrNever}
var briFns = [7]uopFn{opBrIEq, opBrINe, opBrILt, opBrILe, opBrIGt, opBrIGe, opBrNever}

func brTaken(m *Machine, u *uop) *uop {
	m.branch(int(u.pc), int(u.target), true, isa.KindCond)
	if u.next == nil {
		return m.badTransfer(u.pc, int(u.target))
	}
	return u.next
}

func brNotTaken(m *Machine, u *uop) *uop {
	m.branch(int(u.pc), int(u.pc)+1, false, isa.KindCond)
	if u.alt == nil {
		return m.badTransfer(u.pc, int(u.pc)+1)
	}
	return u.alt
}

func opBrNever(m *Machine, u *uop) *uop { return brNotTaken(m, u) }

func opBrEq(m *Machine, u *uop) *uop {
	if m.Reg[u.a] == m.Reg[u.b] {
		return brTaken(m, u)
	}
	return brNotTaken(m, u)
}

func opBrNe(m *Machine, u *uop) *uop {
	if m.Reg[u.a] != m.Reg[u.b] {
		return brTaken(m, u)
	}
	return brNotTaken(m, u)
}

func opBrLt(m *Machine, u *uop) *uop {
	if m.Reg[u.a] < m.Reg[u.b] {
		return brTaken(m, u)
	}
	return brNotTaken(m, u)
}

func opBrLe(m *Machine, u *uop) *uop {
	if m.Reg[u.a] <= m.Reg[u.b] {
		return brTaken(m, u)
	}
	return brNotTaken(m, u)
}

func opBrGt(m *Machine, u *uop) *uop {
	if m.Reg[u.a] > m.Reg[u.b] {
		return brTaken(m, u)
	}
	return brNotTaken(m, u)
}

func opBrGe(m *Machine, u *uop) *uop {
	if m.Reg[u.a] >= m.Reg[u.b] {
		return brTaken(m, u)
	}
	return brNotTaken(m, u)
}

func opBrIEq(m *Machine, u *uop) *uop {
	if m.Reg[u.a] == u.imm {
		return brTaken(m, u)
	}
	return brNotTaken(m, u)
}

func opBrINe(m *Machine, u *uop) *uop {
	if m.Reg[u.a] != u.imm {
		return brTaken(m, u)
	}
	return brNotTaken(m, u)
}

func opBrILt(m *Machine, u *uop) *uop {
	if m.Reg[u.a] < u.imm {
		return brTaken(m, u)
	}
	return brNotTaken(m, u)
}

func opBrILe(m *Machine, u *uop) *uop {
	if m.Reg[u.a] <= u.imm {
		return brTaken(m, u)
	}
	return brNotTaken(m, u)
}

func opBrIGt(m *Machine, u *uop) *uop {
	if m.Reg[u.a] > u.imm {
		return brTaken(m, u)
	}
	return brNotTaken(m, u)
}

func opBrIGe(m *Machine, u *uop) *uop {
	if m.Reg[u.a] >= u.imm {
		return brTaken(m, u)
	}
	return brNotTaken(m, u)
}

func opJmpInd(m *Machine, u *uop) *uop {
	t := int(m.Reg[u.a])
	if !m.Prog.IsBlockStart(t) {
		return m.trapf(FaultBadIndirect, u.pc, "vm: indirect jump to %d (not a block start) at pc %d", t, u.pc)
	}
	m.branch(int(u.pc), t, true, isa.KindIndirect)
	// A block start is inside the program by construction, but hand-built
	// block tables may lie; guard before indexing.
	if t >= len(m.ops) {
		return m.badTransfer(u.pc, t)
	}
	return &m.ops[t]
}

func opCall(m *Machine, u *uop) *uop {
	if len(m.stack) >= MaxCallDepth {
		return m.trapf(FaultStackOverflow, u.pc, "vm: call stack overflow at pc %d", u.pc)
	}
	m.stack = append(m.stack, int64(u.pc)+1)
	m.branch(int(u.pc), int(u.target), true, isa.KindCall)
	if u.next == nil {
		return m.badTransfer(u.pc, int(u.target))
	}
	return u.next
}

func opCallInd(m *Machine, u *uop) *uop {
	t := int(m.Reg[u.a])
	fi := m.Prog.FuncOf(t)
	if fi < 0 || fi >= len(m.Prog.Funcs) || m.Prog.Funcs[fi].Entry != t {
		return m.trapf(FaultBadCallTarget, u.pc, "vm: indirect call to %d (not a function entry) at pc %d", t, u.pc)
	}
	if len(m.stack) >= MaxCallDepth {
		return m.trapf(FaultStackOverflow, u.pc, "vm: call stack overflow at pc %d", u.pc)
	}
	m.stack = append(m.stack, int64(u.pc)+1)
	m.branch(int(u.pc), t, true, isa.KindCallInd)
	if t < 0 || t >= len(m.ops) {
		return m.badTransfer(u.pc, t)
	}
	return &m.ops[t]
}

func opRet(m *Machine, u *uop) *uop {
	if len(m.stack) == 0 {
		return m.trapf(FaultReturnUnderflow, u.pc, "vm: return with empty call stack at pc %d", u.pc)
	}
	t := int(m.stack[len(m.stack)-1])
	m.stack = m.stack[:len(m.stack)-1]
	m.branch(int(u.pc), t, true, isa.KindReturn)
	// A pushed return address is pc+1 of some call, which lands past the
	// end when the call was the last instruction.
	if uint(t) >= uint(len(m.ops)) {
		return m.badTransfer(u.pc, t)
	}
	return &m.ops[t]
}

func opHalt(m *Machine, u *uop) *uop {
	m.Halted = true
	return nil
}

func opBadRegister(m *Machine, u *uop) *uop {
	return m.trapf(FaultBadRegister, u.pc, "vm: register operand out of range in %v at pc %d", u.op, u.pc)
}

func opBadOpcode(m *Machine, u *uop) *uop {
	return m.trapf(FaultBadOpcode, u.pc, "vm: unknown opcode %v at pc %d", u.op, u.pc)
}

// opFallOffEnd replaces the last instruction's handler when that
// instruction is straight-line: the op's effect applies (and its own
// faults, if any, take precedence), then the fallthrough off the program
// end faults, matching the legacy engine's execute-then-validate order.
// This keeps the nil-successor test out of every hot straight-line handler:
// the one instruction that can fall off the end is found at decode time.
func opFallOffEnd(m *Machine, u *uop) *uop {
	switch {
	case u.op.IsALU():
		in := isa.Instr{Op: u.op, B: u.b, C: u.c, Imm: u.imm}
		m.Reg[u.a] = in.Result(&m.Reg)
	case u.op == isa.Load:
		a := m.Reg[u.b] + u.imm
		if uint64(a) >= uint64(len(m.Mem)) {
			return m.trapf(FaultMemOOB, u.pc, "vm: memory access %d out of range [0,%d) at pc %d", a, len(m.Mem), u.pc)
		}
		m.Reg[u.a] = m.Mem[a]
	case u.op == isa.Store:
		a := m.Reg[u.b] + u.imm
		if uint64(a) >= uint64(len(m.Mem)) {
			return m.trapf(FaultMemOOB, u.pc, "vm: memory access %d out of range [0,%d) at pc %d", a, len(m.Mem), u.pc)
		}
		m.Mem[a] = m.Reg[u.a]
	}
	return m.badTransfer(u.pc, int(u.pc)+1)
}
