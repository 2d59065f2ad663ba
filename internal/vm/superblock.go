// Tier-2 superblock execution engine.
//
// A superblock is a straightened multi-fragment trace lowered to an array of
// host micro-ops executed by an index loop with no per-step bookkeeping: no
// Steps increment, no successor compare, no branch-event emission, and no
// step-budget check inside the loop. Everything the per-step engines account
// incrementally is recovered arithmetically at the exit:
//
//   - Steps: the number of completed on-trace guest steps is added once.
//   - Branch events: on-trace transfers are silent; the caller (dynamo) owns
//     prefix-sum redirect accounting over the recorded successors. Only a
//     diverging op replays through execAt, which emits its event, counts its
//     step, performs its stack effects, and raises its faults through the
//     exact same handlers the tier-1 engine uses — so a superblock can never
//     invent a new fault message, event ordering, or architectural state.
//
// The compiler (CompileSuperblock) is a pure function of the recorded spec:
// it touches no Machine state, so it is safe to run on a background compile
// worker while the mutator keeps executing tier-1 fragments. Optimization is
// superblock-scoped rather than per instruction: guards whose operands are
// not written earlier in the block are hoisted into an entry check (fail →
// the caller runs the precise tier-1 loop instead), guards exactly implied
// by an earlier guard are eliminated, pure control ops (Jmp, Nop, branches
// whose outcomes share a successor) compile to nothing, and common adjacent
// pairs (cmp+branch, load+ALU, ALU+store) fuse into single handlers, halving
// dispatch work on typical loop bodies.
package vm

import (
	"errors"
	"fmt"

	"netpath/internal/isa"
)

// SBStep is one guest step of a superblock spec: the instruction, its
// address, and the control successor observed when the trace was recorded.
type SBStep struct {
	In   isa.Instr
	PC   int32
	Next int32
}

// SBStats reports what the superblock compiler did, for telemetry and tests.
type SBStats struct {
	// Skipped counts guest steps compiled to nothing: Nop, straightened
	// unconditional jumps, and branches whose two outcomes share a successor.
	Skipped int
	// Hoisted counts guards moved into the superblock entry check.
	Hoisted int
	// Redundant counts guards eliminated because an earlier guard with the
	// same operands and outcome still holds.
	Redundant int
	// Fused counts adjacent guest pairs merged into one fused handler.
	Fused int
	// Implied counts entry guards eliminated because the kept entry guards
	// that precede them imply them.
	Implied int
}

// SBExit reports one superblock execution.
type SBExit struct {
	// Guest is the number of guest steps that completed on-trace. On a clean
	// completion it equals NGuest. On a divergence the op at index Guest also
	// executed (off-trace, through execAt, with its event and step counted);
	// on a fault the op at index Guest is the faulting instruction.
	Guest int32
	// NextPC is where execution continues (valid when Err is nil).
	NextPC int
	// Completed reports that every guest step ran on-trace; NextPC is then
	// the recorded successor of the final step.
	Completed bool
	// Err is the machine fault that ended the block, already delivered:
	// m.PC is pinned at the faulting instruction and the machine is halted,
	// exactly as the per-step engines leave it.
	Err error
}

// sbGuard is one hoisted entry guard: a pure register predicate that must
// hold for the superblock body (with the guard removed) to be valid.
type sbGuard struct {
	a, b   uint8
	useImm bool
	want   bool // required outcome of cond
	cond   isa.Cond
	imm    int64
}

// sbop is one host micro-op. A fused op carries a second guest sub-op in the
// *2 fields; guest/guest2 are the guest indices used for exit accounting and
// pc/pc2 the guest addresses used for divergence replay and fault messages.
type sbop struct {
	fn         sbFn
	imm        int64
	imm2       int64
	pc, pc2    int32
	next       int32 // recorded successor (fast-path compare for ret/indirect)
	guest      int32
	guest2     int32
	a, b, c    uint8
	a2, b2, c2 uint8
	flag       bool // guard: required taken-ness
	cond       isa.Cond
}

// sbFn executes one host micro-op; false stops the block with the exit
// parked in m.sbx.
type sbFn func(m *Machine, op *sbop) bool

// Superblock is a compiled tier-2 trace, immutable after compilation and
// safe to publish to a running mutator via an atomic pointer store.
type Superblock struct {
	code   []sbop
	guards []sbGuard
	nGuest int32
	exitPC int32
	// checkPfx[g] is the number of in-body runtime checks (branch guards,
	// memory bounds tests, control fast-path compares) attributed to guest
	// indices < g; len nGuest+1. Used for guards-executed accounting.
	checkPfx []int32
}

// NGuest returns the number of guest steps the superblock covers.
func (sb *Superblock) NGuest() int { return int(sb.nGuest) }

// NumGuards returns the number of hoisted entry guards.
func (sb *Superblock) NumGuards() int { return len(sb.guards) }

// NumOps returns the number of host micro-ops in the body.
func (sb *Superblock) NumOps() int { return len(sb.code) }

// ExitPC returns the guest address a completed run continues at.
func (sb *Superblock) ExitPC() int32 { return sb.exitPC }

// BodyChecksAll returns the number of in-body runtime checks a full
// on-trace completion executes. Entry guards are not included; the caller
// accounts those per dispatch via NumGuards (they run even when they fail).
func (sb *Superblock) BodyChecksAll() int64 {
	return int64(sb.checkPfx[len(sb.checkPfx)-1])
}

// BodyChecksUpTo returns the in-body runtime checks attributed to the first
// g completed guest steps. The check that stopped an early exit (a failed
// guard or bounds test at index g) is not included.
func (sb *Superblock) BodyChecksUpTo(g int32) int64 {
	if g < 0 {
		return 0
	}
	if int(g) >= len(sb.checkPfx) {
		g = int32(len(sb.checkPfx) - 1)
	}
	return int64(sb.checkPfx[g])
}

// GuardsPass evaluates the hoisted entry guards against the machine's
// current registers. A false result means the superblock must not run this
// dispatch; the caller falls back to the per-step tier-1 loop, which will
// side-exit at the guard's own position with precise state. The check is
// pure: registers are only read.
//
//netpathvet:dispatch
func (sb *Superblock) GuardsPass(m *Machine) bool {
	for i := range sb.guards {
		g := &sb.guards[i]
		rhs := g.imm
		if !g.useImm {
			rhs = m.Reg[g.b]
		}
		if g.cond.Eval(m.Reg[g.a], rhs) != g.want {
			return false
		}
	}
	return true
}

// sbExec parks the exit state of a stopped superblock. It lives on the
// Machine (not the RunSuperblock frame) so handler calls stay free of
// escaping arguments — the dispatch path must not allocate.
type sbExec struct {
	kind  uint8
	guest int32
	pc    int32
	next  int32
}

const (
	sbExitDiverge = iota + 1
	sbExitFault
)

// RunSuperblock executes sb. The caller must ensure the machine is not
// halted, m.PC equals the superblock's entry address, and (for exact step
// budgets) that NGuest more steps fit the budget; the block is not
// preemptible inside. Architectural effects are exactly those of executing
// the recorded guest steps one at a time on the per-step engines, except
// that on-trace control transfers emit no branch events (the caller accounts
// them from the recorded spec).
//
//netpathvet:dispatch
func (m *Machine) RunSuperblock(sb *Superblock) SBExit {
	code := sb.code
	for i := range code {
		op := &code[i]
		if !op.fn(m, op) {
			x := &m.sbx
			if x.kind == sbExitDiverge {
				m.PC = int(x.next)
				return SBExit{Guest: x.guest, NextPC: int(x.next)}
			}
			return SBExit{Guest: x.guest, Err: m.settleExec(int(x.pc), stop)}
		}
	}
	m.Steps += int64(sb.nGuest)
	m.PC = int(sb.exitPC)
	return SBExit{Guest: sb.nGuest, NextPC: int(sb.exitPC), Completed: true}
}

// sbDiverge replays the guest op at pc through the per-step machinery after
// its superblock fast path failed: execAt counts the step, emits the branch
// event, performs stack effects, and raises any fault with the exact tier-1
// message. The guest-step prefix is settled first so m.Steps is exact at the
// moment the op (and its fault accounting) runs.
func (m *Machine) sbDiverge(pc, guest int32) bool {
	m.Steps += int64(guest)
	npc := m.execAt(int(pc))
	x := &m.sbx
	x.guest = guest
	if npc < 0 {
		x.kind = sbExitFault
		x.pc = pc
	} else {
		x.kind = sbExitDiverge
		x.next = int32(npc)
	}
	return false
}

// sbFaultMem raises the out-of-range memory fault from a superblock load or
// store handler, with the step prefix (including the faulting step, which
// the per-step engines count) settled first.
//
//netpathvet:cold
func (m *Machine) sbFaultMem(pc, guest int32, addr int64) bool {
	m.Steps += int64(guest) + 1
	m.trapf(FaultMemOOB, pc, "vm: memory access %d out of range [0,%d) at pc %d", addr, len(m.Mem), pc)
	m.sbx.kind = sbExitFault
	m.sbx.pc = pc
	m.sbx.guest = guest
	return false
}

// Straight-line handlers. These mirror the tier-1 micro-op handlers minus
// the successor link: a straight op inside a superblock cannot diverge.

func sbMovI(m *Machine, op *sbop) bool { m.Reg[op.a] = op.imm; return true }
func sbMov(m *Machine, op *sbop) bool  { m.Reg[op.a] = m.Reg[op.b]; return true }
func sbAdd(m *Machine, op *sbop) bool  { m.Reg[op.a] = m.Reg[op.b] + m.Reg[op.c]; return true }
func sbSub(m *Machine, op *sbop) bool  { m.Reg[op.a] = m.Reg[op.b] - m.Reg[op.c]; return true }
func sbMul(m *Machine, op *sbop) bool  { m.Reg[op.a] = m.Reg[op.b] * m.Reg[op.c]; return true }

func sbDiv(m *Machine, op *sbop) bool {
	if d := m.Reg[op.c]; d != 0 {
		m.Reg[op.a] = m.Reg[op.b] / d
	} else {
		m.Reg[op.a] = 0
	}
	return true
}

func sbRem(m *Machine, op *sbop) bool {
	if d := m.Reg[op.c]; d != 0 {
		m.Reg[op.a] = m.Reg[op.b] % d
	} else {
		m.Reg[op.a] = 0
	}
	return true
}

func sbAnd(m *Machine, op *sbop) bool { m.Reg[op.a] = m.Reg[op.b] & m.Reg[op.c]; return true }
func sbOr(m *Machine, op *sbop) bool  { m.Reg[op.a] = m.Reg[op.b] | m.Reg[op.c]; return true }
func sbXor(m *Machine, op *sbop) bool { m.Reg[op.a] = m.Reg[op.b] ^ m.Reg[op.c]; return true }

func sbShl(m *Machine, op *sbop) bool {
	m.Reg[op.a] = m.Reg[op.b] << (uint(m.Reg[op.c]) & 63)
	return true
}

func sbShr(m *Machine, op *sbop) bool {
	m.Reg[op.a] = m.Reg[op.b] >> (uint(m.Reg[op.c]) & 63)
	return true
}

func sbAddI(m *Machine, op *sbop) bool { m.Reg[op.a] = m.Reg[op.b] + op.imm; return true }
func sbMulI(m *Machine, op *sbop) bool { m.Reg[op.a] = m.Reg[op.b] * op.imm; return true }
func sbAndI(m *Machine, op *sbop) bool { m.Reg[op.a] = m.Reg[op.b] & op.imm; return true }

func sbRemI(m *Machine, op *sbop) bool {
	if op.imm != 0 {
		m.Reg[op.a] = m.Reg[op.b] % op.imm
	} else {
		m.Reg[op.a] = 0
	}
	return true
}

func sbLoad(m *Machine, op *sbop) bool {
	a := m.Reg[op.b] + op.imm
	if uint64(a) >= uint64(len(m.Mem)) {
		return m.sbFaultMem(op.pc, op.guest, a)
	}
	m.Reg[op.a] = m.Mem[a]
	return true
}

func sbStore(m *Machine, op *sbop) bool {
	a := m.Reg[op.b] + op.imm
	if uint64(a) >= uint64(len(m.Mem)) {
		return m.sbFaultMem(op.pc, op.guest, a)
	}
	m.Mem[a] = m.Reg[op.a]
	return true
}

// Control handlers. The recorded successor is the fast path; anything else
// replays through sbDiverge. A recorded target was valid when the trace ran
// and the program is immutable, so the fast paths re-validate only what
// depends on runtime state (stack depth, stack top, register values).

func sbCall(m *Machine, op *sbop) bool {
	if len(m.stack) < MaxCallDepth {
		m.stack = append(m.stack, int64(op.pc)+1)
		return true
	}
	return m.sbDiverge(op.pc, op.guest) // exact overflow fault via execAt
}

func sbRet(m *Machine, op *sbop) bool {
	if n := len(m.stack); n > 0 && m.stack[n-1] == int64(op.next) {
		m.stack = m.stack[:n-1]
		return true
	}
	return m.sbDiverge(op.pc, op.guest)
}

func sbJmpInd(m *Machine, op *sbop) bool {
	if m.Reg[op.a] == int64(op.next) {
		return true
	}
	return m.sbDiverge(op.pc, op.guest)
}

func sbCallInd(m *Machine, op *sbop) bool {
	if m.Reg[op.a] == int64(op.next) && len(m.stack) < MaxCallDepth {
		m.stack = append(m.stack, int64(op.pc)+1)
		return true
	}
	return m.sbDiverge(op.pc, op.guest)
}

// Guard handlers: the compare and the branch fused into one event-free
// dispatch, specialized per condition. flag is the recorded taken-ness; a
// mismatching outcome replays the branch through execAt (event, step count,
// actual target) and exits.

func sbGuardEqRR(m *Machine, op *sbop) bool {
	if (m.Reg[op.a] == m.Reg[op.b]) == op.flag {
		return true
	}
	return m.sbDiverge(op.pc, op.guest)
}

func sbGuardNeRR(m *Machine, op *sbop) bool {
	if (m.Reg[op.a] != m.Reg[op.b]) == op.flag {
		return true
	}
	return m.sbDiverge(op.pc, op.guest)
}

func sbGuardLtRR(m *Machine, op *sbop) bool {
	if (m.Reg[op.a] < m.Reg[op.b]) == op.flag {
		return true
	}
	return m.sbDiverge(op.pc, op.guest)
}

func sbGuardLeRR(m *Machine, op *sbop) bool {
	if (m.Reg[op.a] <= m.Reg[op.b]) == op.flag {
		return true
	}
	return m.sbDiverge(op.pc, op.guest)
}

func sbGuardGtRR(m *Machine, op *sbop) bool {
	if (m.Reg[op.a] > m.Reg[op.b]) == op.flag {
		return true
	}
	return m.sbDiverge(op.pc, op.guest)
}

func sbGuardGeRR(m *Machine, op *sbop) bool {
	if (m.Reg[op.a] >= m.Reg[op.b]) == op.flag {
		return true
	}
	return m.sbDiverge(op.pc, op.guest)
}

func sbGuardEqRI(m *Machine, op *sbop) bool {
	if (m.Reg[op.a] == op.imm) == op.flag {
		return true
	}
	return m.sbDiverge(op.pc, op.guest)
}

func sbGuardNeRI(m *Machine, op *sbop) bool {
	if (m.Reg[op.a] != op.imm) == op.flag {
		return true
	}
	return m.sbDiverge(op.pc, op.guest)
}

func sbGuardLtRI(m *Machine, op *sbop) bool {
	if (m.Reg[op.a] < op.imm) == op.flag {
		return true
	}
	return m.sbDiverge(op.pc, op.guest)
}

func sbGuardLeRI(m *Machine, op *sbop) bool {
	if (m.Reg[op.a] <= op.imm) == op.flag {
		return true
	}
	return m.sbDiverge(op.pc, op.guest)
}

func sbGuardGtRI(m *Machine, op *sbop) bool {
	if (m.Reg[op.a] > op.imm) == op.flag {
		return true
	}
	return m.sbDiverge(op.pc, op.guest)
}

func sbGuardGeRI(m *Machine, op *sbop) bool {
	if (m.Reg[op.a] >= op.imm) == op.flag {
		return true
	}
	return m.sbDiverge(op.pc, op.guest)
}

var sbGuardRRFns = [6]sbFn{sbGuardEqRR, sbGuardNeRR, sbGuardLtRR, sbGuardLeRR, sbGuardGtRR, sbGuardGeRR}
var sbGuardRIFns = [6]sbFn{sbGuardEqRI, sbGuardNeRI, sbGuardLtRI, sbGuardLeRI, sbGuardGtRI, sbGuardGeRI}

// Fused load+ALU handlers: the load's destination (and bounds check) then
// the ALU op, two guest steps in one dispatch. A load fault exits at the
// first sub-op with the second unapplied, exactly as per-step execution.

func sbLoadAlu(m *Machine, op *sbop) (int64, bool) {
	a := m.Reg[op.b] + op.imm
	if uint64(a) >= uint64(len(m.Mem)) {
		return 0, m.sbFaultMem(op.pc, op.guest, a)
	}
	m.Reg[op.a] = m.Mem[a]
	return a, true
}

func sbLoadAdd(m *Machine, op *sbop) bool {
	if _, ok := sbLoadAlu(m, op); !ok {
		return false
	}
	m.Reg[op.a2] = m.Reg[op.b2] + m.Reg[op.c2]
	return true
}

func sbLoadSub(m *Machine, op *sbop) bool {
	if _, ok := sbLoadAlu(m, op); !ok {
		return false
	}
	m.Reg[op.a2] = m.Reg[op.b2] - m.Reg[op.c2]
	return true
}

func sbLoadMul(m *Machine, op *sbop) bool {
	if _, ok := sbLoadAlu(m, op); !ok {
		return false
	}
	m.Reg[op.a2] = m.Reg[op.b2] * m.Reg[op.c2]
	return true
}

func sbLoadAnd(m *Machine, op *sbop) bool {
	if _, ok := sbLoadAlu(m, op); !ok {
		return false
	}
	m.Reg[op.a2] = m.Reg[op.b2] & m.Reg[op.c2]
	return true
}

func sbLoadOr(m *Machine, op *sbop) bool {
	if _, ok := sbLoadAlu(m, op); !ok {
		return false
	}
	m.Reg[op.a2] = m.Reg[op.b2] | m.Reg[op.c2]
	return true
}

func sbLoadXor(m *Machine, op *sbop) bool {
	if _, ok := sbLoadAlu(m, op); !ok {
		return false
	}
	m.Reg[op.a2] = m.Reg[op.b2] ^ m.Reg[op.c2]
	return true
}

func sbLoadAddI(m *Machine, op *sbop) bool {
	if _, ok := sbLoadAlu(m, op); !ok {
		return false
	}
	m.Reg[op.a2] = m.Reg[op.b2] + op.imm2
	return true
}

func sbLoadMulI(m *Machine, op *sbop) bool {
	if _, ok := sbLoadAlu(m, op); !ok {
		return false
	}
	m.Reg[op.a2] = m.Reg[op.b2] * op.imm2
	return true
}

func sbLoadAndI(m *Machine, op *sbop) bool {
	if _, ok := sbLoadAlu(m, op); !ok {
		return false
	}
	m.Reg[op.a2] = m.Reg[op.b2] & op.imm2
	return true
}

// Fused ALU+store handlers: the ALU result lands, then the store (with its
// bounds check) commits it. A store fault exits at the second sub-op with
// the ALU effect applied — the per-step order.

func sbStore2(m *Machine, op *sbop) bool {
	a := m.Reg[op.b2] + op.imm2
	if uint64(a) >= uint64(len(m.Mem)) {
		return m.sbFaultMem(op.pc2, op.guest2, a)
	}
	m.Mem[a] = m.Reg[op.a2]
	return true
}

func sbAddStore(m *Machine, op *sbop) bool {
	m.Reg[op.a] = m.Reg[op.b] + m.Reg[op.c]
	return sbStore2(m, op)
}

func sbSubStore(m *Machine, op *sbop) bool {
	m.Reg[op.a] = m.Reg[op.b] - m.Reg[op.c]
	return sbStore2(m, op)
}

func sbMulStore(m *Machine, op *sbop) bool {
	m.Reg[op.a] = m.Reg[op.b] * m.Reg[op.c]
	return sbStore2(m, op)
}

func sbAndStore(m *Machine, op *sbop) bool {
	m.Reg[op.a] = m.Reg[op.b] & m.Reg[op.c]
	return sbStore2(m, op)
}

func sbOrStore(m *Machine, op *sbop) bool {
	m.Reg[op.a] = m.Reg[op.b] | m.Reg[op.c]
	return sbStore2(m, op)
}

func sbXorStore(m *Machine, op *sbop) bool {
	m.Reg[op.a] = m.Reg[op.b] ^ m.Reg[op.c]
	return sbStore2(m, op)
}

func sbAddIStore(m *Machine, op *sbop) bool {
	m.Reg[op.a] = m.Reg[op.b] + op.imm
	return sbStore2(m, op)
}

func sbMulIStore(m *Machine, op *sbop) bool {
	m.Reg[op.a] = m.Reg[op.b] * op.imm
	return sbStore2(m, op)
}

func sbAndIStore(m *Machine, op *sbop) bool {
	m.Reg[op.a] = m.Reg[op.b] & op.imm
	return sbStore2(m, op)
}

func sbMovStore(m *Machine, op *sbop) bool {
	m.Reg[op.a] = m.Reg[op.b]
	return sbStore2(m, op)
}

func sbMovIStore(m *Machine, op *sbop) bool {
	m.Reg[op.a] = op.imm
	return sbStore2(m, op)
}

// Fused ALU+guard handlers (the loop-counter idiom: update then compare and
// branch). The guard side evaluates the condition generically — still one
// dispatch for two guest steps.

func sbGuard2(m *Machine, op *sbop) bool {
	rhs := op.imm2
	if op.c2 == 0 { // register form; c2 is the form flag, b2 the rhs register
		rhs = m.Reg[op.b2]
	}
	if op.cond.Eval(m.Reg[op.a2], rhs) == op.flag {
		return true
	}
	return m.sbDiverge(op.pc2, op.guest2)
}

func sbAddIGuard(m *Machine, op *sbop) bool {
	m.Reg[op.a] = m.Reg[op.b] + op.imm
	return sbGuard2(m, op)
}

func sbAddGuard(m *Machine, op *sbop) bool {
	m.Reg[op.a] = m.Reg[op.b] + m.Reg[op.c]
	return sbGuard2(m, op)
}

func sbSubGuard(m *Machine, op *sbop) bool {
	m.Reg[op.a] = m.Reg[op.b] - m.Reg[op.c]
	return sbGuard2(m, op)
}

// sbStraight maps straight-line opcodes to their single handlers.
var sbStraight = map[isa.Op]sbFn{
	isa.MovI: sbMovI, isa.Mov: sbMov,
	isa.Add: sbAdd, isa.Sub: sbSub, isa.Mul: sbMul, isa.Div: sbDiv, isa.Rem: sbRem,
	isa.And: sbAnd, isa.Or: sbOr, isa.Xor: sbXor, isa.Shl: sbShl, isa.Shr: sbShr,
	isa.AddI: sbAddI, isa.MulI: sbMulI, isa.AndI: sbAndI, isa.RemI: sbRemI,
	isa.Load: sbLoad, isa.Store: sbStore,
}

// sbLoadAluFns maps the second op of a load+ALU pair to its fused handler.
var sbLoadAluFns = map[isa.Op]sbFn{
	isa.Add: sbLoadAdd, isa.Sub: sbLoadSub, isa.Mul: sbLoadMul,
	isa.And: sbLoadAnd, isa.Or: sbLoadOr, isa.Xor: sbLoadXor,
	isa.AddI: sbLoadAddI, isa.MulI: sbLoadMulI, isa.AndI: sbLoadAndI,
}

// sbAluStoreFns maps the first op of an ALU+store pair to its fused handler.
var sbAluStoreFns = map[isa.Op]sbFn{
	isa.Add: sbAddStore, isa.Sub: sbSubStore, isa.Mul: sbMulStore,
	isa.And: sbAndStore, isa.Or: sbOrStore, isa.Xor: sbXorStore,
	isa.AddI: sbAddIStore, isa.MulI: sbMulIStore, isa.AndI: sbAndIStore,
	isa.Mov: sbMovStore, isa.MovI: sbMovIStore,
}

// sbAluGuardFns maps the first op of an ALU+guard pair to its fused handler.
var sbAluGuardFns = map[isa.Op]sbFn{
	isa.AddI: sbAddIGuard, isa.Add: sbAddGuard, isa.Sub: sbSubGuard,
}

// Lowering classes per guest step.
const (
	clSkip = iota
	clStraight
	clGuardRR
	clGuardRI
	clCall
	clRet
	clJmpInd
	clCallInd
)

// guardFact identifies a guard outcome that is known to hold at a program
// point: condition, operand form, and recorded direction.
type guardFact struct {
	a, b   uint8
	useImm bool
	want   bool
	cond   isa.Cond
	imm    int64
}

// CompileSuperblock lowers a recorded guest trace to a superblock. It is a
// pure function of the spec (no Machine state), so it can run on a
// background worker. progLen bounds the recorded addresses; a spec the
// compiler cannot prove it understands — malformed instructions, successors
// inconsistent with the opcode, steps that do not chain, a Halt — is
// refused with an error rather than compiled approximately, because an
// executed superblock must be architecturally indistinguishable from
// per-step execution.
//
//netpathvet:cold
func CompileSuperblock(spec []SBStep, progLen int) (*Superblock, SBStats, error) {
	var stats SBStats
	n := len(spec)
	if n == 0 {
		return nil, stats, errors.New("vm: empty superblock spec")
	}

	// Validate and classify each guest step.
	cls := make([]uint8, n)
	for i := range spec {
		st := &spec[i]
		in := st.In
		pc, next := int(st.PC), int(st.Next)
		if pc < 0 || pc >= progLen || next < 0 || next >= progLen {
			return nil, stats, fmt.Errorf("vm: superblock step %d out of program range (pc %d, next %d)", i, pc, next)
		}
		if err := in.Validate(); err != nil {
			return nil, stats, fmt.Errorf("vm: superblock step %d: %w", i, err)
		}
		// The body executes the recorded instructions, not the program at
		// the recorded successor, so a step must start where the previous
		// one went.
		if i+1 < n && spec[i+1].PC != st.Next {
			return nil, stats, fmt.Errorf("vm: superblock step %d: successor %d does not chain to step %d at pc %d", i, next, i+1, spec[i+1].PC)
		}
		switch in.Op {
		case isa.Halt:
			return nil, stats, fmt.Errorf("vm: superblock step %d is halt", i)
		case isa.Nop:
			if next != pc+1 {
				return nil, stats, fmt.Errorf("vm: superblock step %d: nop successor %d != pc+1", i, next)
			}
			cls[i] = clSkip
		case isa.Jmp:
			if next != int(in.Target) {
				return nil, stats, fmt.Errorf("vm: superblock step %d: jmp successor %d != target %d", i, next, in.Target)
			}
			cls[i] = clSkip
		case isa.Br, isa.BrI:
			if next != int(in.Target) && next != pc+1 {
				return nil, stats, fmt.Errorf("vm: superblock step %d: branch successor %d matches neither target nor fallthrough", i, next)
			}
			if int(in.Target) == pc+1 {
				// Both outcomes share the successor: no divergence possible.
				cls[i] = clSkip
			} else if in.Op == isa.Br {
				cls[i] = clGuardRR
			} else {
				cls[i] = clGuardRI
			}
		case isa.Call:
			if next != int(in.Target) {
				return nil, stats, fmt.Errorf("vm: superblock step %d: call successor %d != target %d", i, next, in.Target)
			}
			cls[i] = clCall
		case isa.Ret:
			cls[i] = clRet
		case isa.JmpInd:
			cls[i] = clJmpInd
		case isa.CallInd:
			cls[i] = clCallInd
		default:
			if next != pc+1 {
				return nil, stats, fmt.Errorf("vm: superblock step %d: straight-line successor %d != pc+1", i, next)
			}
			cls[i] = clStraight
		}
	}

	// Guard planning: hoist entry-invariant guards, eliminate guards exactly
	// implied by an earlier one. Facts die when a source register is written.
	var guards []sbGuard
	var written [isa.NumRegs]bool
	gfacts := map[guardFact]bool{}
	invalidate := func(r uint8) {
		for f := range gfacts {
			if f.a == r || (!f.useImm && f.b == r) {
				delete(gfacts, f)
			}
		}
	}
	for i := range spec {
		in := spec[i].In
		if cls[i] == clGuardRR || cls[i] == clGuardRI {
			f := guardFact{
				a:      in.A,
				useImm: cls[i] == clGuardRI,
				want:   spec[i].Next == in.Target,
				cond:   in.Cond,
			}
			if f.useImm {
				f.imm = in.Imm
			} else {
				f.b = in.B
			}
			switch {
			case gfacts[f]:
				cls[i] = clSkip
				stats.Redundant++
			case !written[in.A] && (f.useImm || !written[in.B]):
				guards = append(guards, sbGuard{
					a: f.a, b: f.b, useImm: f.useImm, want: f.want, cond: f.cond, imm: f.imm,
				})
				gfacts[f] = true
				cls[i] = clSkip
				stats.Hoisted++
			default:
				gfacts[f] = true
			}
		}
		if r, ok := in.Def(); ok {
			written[r] = true
			invalidate(r)
		}
	}

	// Drop entry guards implied by the kept entry guards before them: a
	// register state that passes the kept prefix cannot fail the dropped
	// guard, so the body's assumptions still hold.
	guards = pruneImpliedGuards(guards, &stats)

	// Lower to host ops, fusing adjacent executable pairs. Skipped steps
	// execute nothing, so fusion may reach across them. checkAt records the
	// runtime checks each guest index contributes, for the guards-executed
	// accounting exposed via BodyChecksAll/BodyChecksUpTo.
	code := make([]sbop, 0, n)
	checkAt := make([]int32, n)
	nextEmit := func(from int) int {
		for j := from; j < n; j++ {
			if cls[j] != clSkip {
				return j
			}
		}
		return -1
	}
	for i := 0; i < n; {
		if cls[i] == clSkip {
			stats.Skipped++
			i++
			continue
		}
		if j := nextEmit(i + 1); j >= 0 {
			if op, ok := fusePair(spec, cls, i, j, checkAt); ok {
				code = append(code, op)
				stats.Fused++
				stats.Skipped += j - i - 1 // skips the fusion reached across
				i = j + 1
				continue
			}
		}
		code = append(code, lowerSingle(&spec[i], cls[i], i, checkAt))
		i++
	}

	checkPfx := make([]int32, n+1)
	for i := 0; i < n; i++ {
		checkPfx[i+1] = checkPfx[i] + checkAt[i]
	}

	sb := &Superblock{
		code:     code,
		guards:   guards,
		nGuest:   int32(n),
		exitPC:   spec[n-1].Next,
		checkPfx: checkPfx,
	}
	return sb, stats, nil
}

// guardInterval returns the satisfied set of an immediate-form guard as an
// interval, when it has one (every effective condition except Ne).
func guardInterval(g sbGuard) (lo, hi int64, ok bool) {
	cond, want := g.cond, g.want
	if !want {
		switch cond {
		case isa.Eq:
			cond = isa.Ne
		case isa.Ne:
			cond = isa.Eq
		case isa.Lt:
			cond = isa.Ge
		case isa.Le:
			cond = isa.Gt
		case isa.Gt:
			cond = isa.Le
		case isa.Ge:
			cond = isa.Lt
		}
	}
	switch cond {
	case isa.Eq:
		return g.imm, g.imm, true
	case isa.Lt:
		if g.imm == minInt64 {
			return 0, 0, false // never satisfiable; keep the guard
		}
		return minInt64, g.imm - 1, true
	case isa.Le:
		return minInt64, g.imm, true
	case isa.Gt:
		if g.imm == maxInt64 {
			return 0, 0, false
		}
		return g.imm + 1, maxInt64, true
	case isa.Ge:
		return g.imm, maxInt64, true
	}
	return 0, 0, false // Ne: excluded-point form
}

// guardExcludes returns the single value an effective-Ne guard rules out.
func guardExcludes(g sbGuard) (int64, bool) {
	if (g.cond == isa.Ne && g.want) || (g.cond == isa.Eq && !g.want) {
		return g.imm, true
	}
	return 0, false
}

const (
	minInt64 = -1 << 63
	maxInt64 = 1<<63 - 1
)

// pruneImpliedGuards removes immediate-form entry guards implied by the
// kept entry guards preceding them on the same register. Register-form
// guards are kept untouched (their truth depends on two registers).
// Dropping a guard can only widen the set of states that enter the
// superblock up to the set the remaining guards admit — and implication
// means every such state satisfies the dropped guard too.
func pruneImpliedGuards(guards []sbGuard, stats *SBStats) []sbGuard {
	type bound struct {
		lo, hi int64
		has    bool
	}
	var cons [isa.NumRegs]bound
	kept := guards[:0]
	for _, g := range guards {
		if !g.useImm {
			kept = append(kept, g)
			continue
		}
		c := &cons[g.a]
		lo, hi, isIv := guardInterval(g)
		if c.has {
			if isIv && c.lo >= lo && c.hi <= hi {
				stats.Implied++
				continue
			}
			if excl, ok := guardExcludes(g); ok && (excl < c.lo || excl > c.hi) {
				stats.Implied++
				continue
			}
		}
		if isIv {
			if !c.has {
				*c = bound{lo: lo, hi: hi, has: true}
			} else {
				if lo > c.lo {
					c.lo = lo
				}
				if hi < c.hi {
					c.hi = hi
				}
			}
		}
		kept = append(kept, g)
	}
	return kept
}

// lowerSingle builds the host op for one unfused guest step.
func lowerSingle(st *SBStep, class uint8, guest int, checkAt []int32) sbop {
	in := st.In
	op := sbop{
		imm: in.Imm, pc: st.PC, next: st.Next, guest: int32(guest),
		a: in.A, b: in.B, c: in.C,
	}
	switch class {
	case clStraight:
		op.fn = sbStraight[in.Op]
		if in.Op == isa.Load || in.Op == isa.Store {
			checkAt[guest]++
		}
	case clGuardRR:
		op.fn = sbGuardRRFns[in.Cond]
		op.flag = st.Next == in.Target
		checkAt[guest]++
	case clGuardRI:
		op.fn = sbGuardRIFns[in.Cond]
		op.flag = st.Next == in.Target
		checkAt[guest]++
	case clCall:
		op.fn = sbCall
		checkAt[guest]++
	case clRet:
		op.fn = sbRet
		checkAt[guest]++
	case clJmpInd:
		op.fn = sbJmpInd
		checkAt[guest]++
	case clCallInd:
		op.fn = sbCallInd
		checkAt[guest]++
	}
	return op
}

// fusePair attempts to merge guest steps i and j (the next two executable
// steps) into one fused host op.
func fusePair(spec []SBStep, cls []uint8, i, j int, checkAt []int32) (sbop, bool) {
	a, b := &spec[i], &spec[j]
	var fn sbFn
	var check int // guest index whose runtime check the fused op executes
	switch {
	case cls[i] == clStraight && a.In.Op == isa.Load && cls[j] == clStraight:
		fn, check = sbLoadAluFns[b.In.Op], i
	case cls[i] == clStraight && b.In.Op == isa.Store && cls[j] == clStraight:
		fn, check = sbAluStoreFns[a.In.Op], j
	case cls[i] == clStraight && (cls[j] == clGuardRR || cls[j] == clGuardRI):
		fn, check = sbAluGuardFns[a.In.Op], j
	}
	if fn == nil {
		return sbop{}, false
	}
	checkAt[check]++
	op := sbop{
		fn:  fn,
		imm: a.In.Imm, imm2: b.In.Imm,
		pc: a.PC, pc2: b.PC, next: b.Next,
		guest: int32(i), guest2: int32(j),
		a: a.In.A, b: a.In.B, c: a.In.C,
		a2: b.In.A, b2: b.In.B, c2: b.In.C,
	}
	if cls[j] == clGuardRR || cls[j] == clGuardRI {
		op.cond = b.In.Cond
		op.flag = b.Next == b.In.Target
		if cls[j] == clGuardRI {
			op.c2 = 1 // immediate form marker for sbGuard2
		} else {
			op.c2 = 0
		}
	}
	return op, true
}
