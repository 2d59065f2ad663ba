// Package vm implements the interpreter for the toy machine. The machine
// executes a prog.Program one instruction at a time and reports every
// dynamic control transfer to an optional listener; the profiling and
// prediction layers are built entirely on that branch event stream.
package vm

import (
	"errors"
	"fmt"

	"netpath/internal/isa"
	"netpath/internal/prog"
)

// BranchEvent describes one executed control transfer.
type BranchEvent struct {
	PC       int            // address of the control instruction
	Target   int            // address execution continues at
	Taken    bool           // false only for not-taken conditional branches
	Kind     isa.BranchKind // classification of the transfer
	Backward bool           // taken and Target <= PC (delimits forward paths)
}

// Sink receives branch events through a direct interface method — one
// indirect call per event. The profiling stack (path.Tracker, dynamo.System)
// implements it on its concrete type, which skips the extra call frame a
// method-value Listener closure would add on the interpreter's hottest edge.
// Implementations must not modify the machine.
type Sink interface {
	OnBranch(BranchEvent)
}

// Listener receives branch events as a plain function; it is the convenience
// form of Sink for ad-hoc callers (tests, one-off measurements).
// Implementations must not modify the machine.
type Listener func(BranchEvent)

// OnBranch implements Sink, so a Listener can stand wherever a Sink is
// expected.
func (l Listener) OnBranch(ev BranchEvent) { l(ev) }

// FaultHook is consulted at the top of every Step, before the instruction
// executes. Returning a non-nil error injects a machine fault at the current
// PC: the machine halts and Step returns the error. The chaos package uses
// this seam to force traps at chosen step counts; a hook must be
// deterministic in the machine state it observes so runs stay replayable.
type FaultHook func(m *Machine) error

// Limits and failure modes.
var (
	// ErrStepLimit is returned by Run when the step budget is exhausted
	// before the program halts.
	ErrStepLimit = errors.New("vm: step limit exceeded")
	// ErrHalted is returned by Step on a halted machine.
	ErrHalted = errors.New("vm: machine is halted")
)

// FaultKind classifies machine faults.
type FaultKind uint8

// Machine fault kinds.
const (
	// FaultMemOOB: load or store outside [0, MemSize).
	FaultMemOOB FaultKind = iota
	// FaultBadIndirect: indirect jump to an address that is not a block start.
	FaultBadIndirect
	// FaultBadCallTarget: indirect call to an address that is not a function
	// entry.
	FaultBadCallTarget
	// FaultStackOverflow: call depth exceeded MaxCallDepth.
	FaultStackOverflow
	// FaultReturnUnderflow: return with an empty call stack.
	FaultReturnUnderflow
	// FaultBadOpcode: undefined opcode.
	FaultBadOpcode
	// FaultBadPC: control transfer (or entry) outside the instruction array.
	FaultBadPC
	// FaultBadRegister: register operand outside the register file.
	FaultBadRegister
	// FaultInjected: fault forced by a FaultHook (chaos testing).
	FaultInjected
)

var faultNames = [...]string{
	"mem-oob", "bad-indirect", "bad-call-target", "stack-overflow",
	"return-underflow", "bad-opcode", "bad-pc", "bad-register", "injected",
}

// String names the fault kind.
func (k FaultKind) String() string {
	if int(k) < len(faultNames) {
		return faultNames[k]
	}
	return fmt.Sprintf("fault(%d)", uint8(k))
}

// Fault is a machine fault. Step returns a *Fault (wrapped errors.As-compatible)
// for every execution error other than ErrHalted; the machine is halted when
// it is returned. The message always names the faulting PC.
type Fault struct {
	Kind FaultKind
	PC   int
	Msg  string
}

// Error implements error.
func (f *Fault) Error() string { return f.Msg }

// fault constructs the machine's fault error; it runs at most once per
// execution, on the failure path.
//
//netpathvet:cold
func (m *Machine) fault(kind FaultKind, format string, args ...any) error {
	m.Halted = true
	countFault(kind)
	if m.faultObs != nil {
		m.faultObs(kind, m.PC)
	}
	return &Fault{Kind: kind, PC: m.PC, Msg: fmt.Sprintf(format, args...)}
}

// MaxCallDepth bounds the return stack to catch runaway recursion in
// malformed workloads.
const MaxCallDepth = 1 << 16

// Engine selects the execution engine. The predecoded direct-threaded
// engine (EngineFast) is the default; the original switch-based decoder
// (EngineLegacy) is kept as the reference semantics for differential
// testing. Both engines produce identical architectural state, branch
// events, step counts, and fault errors on every program.
type Engine uint8

// Execution engines.
const (
	EngineFast Engine = iota
	EngineLegacy
)

// Machine is the interpreter state.
type Machine struct {
	Prog   *prog.Program
	Reg    [isa.NumRegs]int64
	Mem    []int64
	PC     int
	Halted bool
	// Steps counts executed instructions (including Halt).
	Steps int64

	// ops is the predecoded micro-op image of Prog; it depends only on the
	// instruction bytes, so Reset leaves it intact.
	ops []uop
	// trap holds a fault raised inside a micro-op handler until settleExec
	// delivers it; badTarget is the target of the last out-of-range control
	// transfer, which RunTrace still accounts although its sink is muted.
	trap      *Fault
	badTarget int
	// stopAt is the step bound RunToYield's loop compares against; Yield
	// zeroes it, and yielded tells a yield apart from the step budget.
	stopAt  int64
	yielded bool
	// legacy routes Step/Run through the switch-based decoder.
	legacy bool

	stack     []int64
	sink      Sink
	faultHook FaultHook
	faultObs  FaultObserver

	// sbx parks the exit state of a stopped superblock. It lives here rather
	// than on the RunSuperblock frame so superblock handlers take no escaping
	// arguments (the tier-2 dispatch path must not allocate).
	sbx sbExec
}

// New creates a machine for p with memory initialized from p.InitMem and the
// program counter at p.Entry. The program is predecoded once, here, into the
// direct-threaded micro-op array both Step and Run dispatch through.
func New(p *prog.Program) *Machine {
	m := &Machine{Prog: p, ops: predecode(p)}
	m.Reset()
	return m
}

// SetEngine selects the execution engine; see Engine. It may be switched at
// any instruction boundary.
func (m *Machine) SetEngine(e Engine) { m.legacy = e == EngineLegacy }

// Reset restores the machine to its initial state (registers zero, memory
// re-initialized, PC at entry).
func (m *Machine) Reset() {
	m.Reg = [isa.NumRegs]int64{}
	m.Mem = make([]int64, m.Prog.MemSize)
	for _, mi := range m.Prog.InitMem {
		// Out-of-range initializers are ignored rather than panicking;
		// Validate rejects them for built programs, but the machine must
		// also survive hand-assembled (fuzzed) images.
		if mi.Addr >= 0 && mi.Addr < len(m.Mem) {
			m.Mem[mi.Addr] = mi.Value
		}
	}
	m.PC = m.Prog.Entry
	m.Halted = false
	m.Steps = 0
	m.trap = nil
	m.stack = m.stack[:0]
}

// SetSink installs the branch event sink (nil disables events). Prefer this
// over SetListener on hot paths: the event is delivered by one interface
// call on the receiver's concrete type.
func (m *Machine) SetSink(s Sink) { m.sink = s }

// SetListener installs a function-valued branch event listener
// (nil disables events). Equivalent to SetSink(Listener(l)).
func (m *Machine) SetListener(l Listener) {
	if l == nil {
		m.sink = nil
		return
	}
	m.sink = l
}

// SetFaultHook installs the fault-injection hook (nil disables injection).
// A non-nil hook routes Run through the per-step slow path so the hook is
// consulted before every instruction, exactly as Step does. The batched
// loops (RunToYield, RunTrace, RunMuted) never consult it: a caller that
// drives them bounds each run at its next injection step and delivers the
// fault with Inject instead.
func (m *Machine) SetFaultHook(h FaultHook) { m.faultHook = h }

// Inject delivers an injected fault at the current instruction boundary
// exactly as Step's fault-hook path does: the machine halts, the fault is
// counted and observed, and err is returned. The instruction at m.PC does
// not execute and m.Steps does not move.
//
//netpathvet:cold
func (m *Machine) Inject(err error) error {
	m.Halted = true
	m.noteFaultErr(err)
	return err
}

// FaultObserver is notified once per delivered fault with the kind and the
// faulting guest PC. It runs on the failure path only — never per
// instruction — so observers may be as heavy as a span write or a
// flight-recorder note. It gets no step count: the batched loops keep theirs
// in a local and settle m.Steps only when they return.
type FaultObserver func(kind FaultKind, pc int)

// SetFaultObserver installs the per-machine fault observer (nil disables
// it). Unlike the unconditional fault counters, the observer carries
// request-scoped context: dynamo and netpathd use it to attach fault spans
// to the run's trace.
func (m *Machine) SetFaultObserver(obs FaultObserver) { m.faultObs = obs }

// CallDepth returns the current return-stack depth.
func (m *Machine) CallDepth() int { return len(m.stack) }

// InstrAt returns the instruction at addr; it panics on out-of-range
// addresses (callers hold a validated program).
func (m *Machine) InstrAt(addr int) isa.Instr { return m.Prog.Instrs[addr] }

// branch reports a control transfer to the sink. The nil-sink early return
// keeps branch within the inlining budget, so unprofiled runs pay one
// inlined compare per transfer instead of a call.
func (m *Machine) branch(pc, target int, taken bool, kind isa.BranchKind) {
	if m.sink == nil {
		return
	}
	m.emitBranch(pc, target, taken, kind)
}

// emitBranch is kept out of line so branch stays within the inlining
// budget; it only runs when a sink is installed.
//
//go:noinline
func (m *Machine) emitBranch(pc, target int, taken bool, kind isa.BranchKind) {
	m.sink.OnBranch(BranchEvent{
		PC:       pc,
		Target:   target,
		Taken:    taken,
		Kind:     kind,
		Backward: isa.IsBackward(pc, target, taken),
	})
}

func (m *Machine) memAddr(base int64, off int64) (int, error) {
	a := base + off
	if a < 0 || a >= int64(len(m.Mem)) {
		return 0, m.fault(FaultMemOOB, "vm: memory access %d out of range [0,%d) at pc %d", a, len(m.Mem), m.PC)
	}
	return int(a), nil
}

// Step executes one instruction. It returns ErrHalted on a halted machine
// and an execution fault (bad memory access, bad indirect target, return
// underflow, call overflow, bad register operand, bad PC) as a *Fault error;
// faults halt the machine. Step never panics, even on hand-assembled
// programs that bypass prog.Validate.
func (m *Machine) Step() error {
	if m.Halted {
		return ErrHalted
	}
	if m.faultHook != nil {
		if err := m.faultHook(m); err != nil {
			return m.Inject(err)
		}
	}
	if m.legacy {
		return m.stepSwitch()
	}
	pc := m.PC
	if uint(pc) >= uint(len(m.ops)) {
		return m.fault(FaultBadPC, "vm: pc %d outside program [0,%d)", pc, len(m.Prog.Instrs))
	}
	u := &m.ops[pc]
	m.Steps++
	nu := u.fn(m, u)
	if nu == nil {
		return m.settleExec(pc, stop)
	}
	m.PC = int(nu.pc)
	return nil
}

// execAt executes the single predecoded micro-op at pc and returns the next
// PC, or a negative value when the micro-op stopped the machine (Halt or
// fault). It counts the step and delivers the branch event but does not
// move m.PC — its caller, superblock divergence replay, owns the PC and
// resolves stops via settleExec. The caller must ensure the machine is not
// halted and pc is in range.
func (m *Machine) execAt(pc int) int {
	u := &m.ops[pc]
	m.Steps++
	nu := u.fn(m, u)
	if nu == nil {
		return stop
	}
	return int(nu.pc)
}

// settleExec resolves a micro-op stop (a nil successor) at pc,
// reproducing the legacy engine's cold-path semantics: a clean Halt returns
// nil and a parked handler fault is delivered, with the step uncounted for
// bad-register faults, which the legacy engine rejects before counting.
// m.PC is left at pc — the halting or faulting instruction — in every
// case. npc is the stop value, kept for the defensive fallback: handlers
// fault all out-of-range transfers themselves, so a non-halted settle
// cannot happen on any reachable path.
func (m *Machine) settleExec(pc, npc int) error {
	m.PC = pc
	if m.Halted {
		f := m.trap
		if f == nil {
			return nil
		}
		m.trap = nil
		if f.Kind == FaultBadRegister {
			m.Steps--
		}
		return f
	}
	return m.fault(FaultBadPC, "vm: control transfer to %d out of range at pc %d", npc, pc)
}

// stepSwitch is the original switch-based decoder, retained as the legacy
// engine (EngineLegacy) and as the reference semantics the predecoded
// engine is differentially tested against. Step has already checked that
// the machine runs and consulted the fault hook.
func (m *Machine) stepSwitch() error {
	pc := m.PC
	if pc < 0 || pc >= len(m.Prog.Instrs) {
		return m.fault(FaultBadPC, "vm: pc %d outside program [0,%d)", pc, len(m.Prog.Instrs))
	}
	in := &m.Prog.Instrs[pc]
	if int(in.A|in.B|in.C) >= isa.NumRegs {
		return m.fault(FaultBadRegister, "vm: register operand out of range in %v at pc %d", in.Op, pc)
	}
	m.Steps++
	next := pc + 1

	switch in.Op {
	case isa.Nop:
	case isa.MovI:
		m.Reg[in.A] = in.Imm
	case isa.Mov:
		m.Reg[in.A] = m.Reg[in.B]
	case isa.Add:
		m.Reg[in.A] = m.Reg[in.B] + m.Reg[in.C]
	case isa.Sub:
		m.Reg[in.A] = m.Reg[in.B] - m.Reg[in.C]
	case isa.Mul:
		m.Reg[in.A] = m.Reg[in.B] * m.Reg[in.C]
	case isa.Div:
		if m.Reg[in.C] == 0 {
			m.Reg[in.A] = 0
		} else {
			m.Reg[in.A] = m.Reg[in.B] / m.Reg[in.C]
		}
	case isa.Rem:
		if m.Reg[in.C] == 0 {
			m.Reg[in.A] = 0
		} else {
			m.Reg[in.A] = m.Reg[in.B] % m.Reg[in.C]
		}
	case isa.And:
		m.Reg[in.A] = m.Reg[in.B] & m.Reg[in.C]
	case isa.Or:
		m.Reg[in.A] = m.Reg[in.B] | m.Reg[in.C]
	case isa.Xor:
		m.Reg[in.A] = m.Reg[in.B] ^ m.Reg[in.C]
	case isa.Shl:
		m.Reg[in.A] = m.Reg[in.B] << (uint(m.Reg[in.C]) & 63)
	case isa.Shr:
		m.Reg[in.A] = m.Reg[in.B] >> (uint(m.Reg[in.C]) & 63)
	case isa.AddI:
		m.Reg[in.A] = m.Reg[in.B] + in.Imm
	case isa.MulI:
		m.Reg[in.A] = m.Reg[in.B] * in.Imm
	case isa.AndI:
		m.Reg[in.A] = m.Reg[in.B] & in.Imm
	case isa.RemI:
		if in.Imm == 0 {
			m.Reg[in.A] = 0
		} else {
			m.Reg[in.A] = m.Reg[in.B] % in.Imm
		}
	case isa.Load:
		a, err := m.memAddr(m.Reg[in.B], in.Imm)
		if err != nil {
			return err
		}
		m.Reg[in.A] = m.Mem[a]
	case isa.Store:
		a, err := m.memAddr(m.Reg[in.B], in.Imm)
		if err != nil {
			return err
		}
		m.Mem[a] = m.Reg[in.A]

	case isa.Jmp:
		next = int(in.Target)
		m.branch(pc, next, true, isa.KindJump)
	case isa.Br:
		if in.Cond.Eval(m.Reg[in.A], m.Reg[in.B]) {
			next = int(in.Target)
			m.branch(pc, next, true, isa.KindCond)
		} else {
			m.branch(pc, next, false, isa.KindCond)
		}
	case isa.BrI:
		if in.Cond.Eval(m.Reg[in.A], in.Imm) {
			next = int(in.Target)
			m.branch(pc, next, true, isa.KindCond)
		} else {
			m.branch(pc, next, false, isa.KindCond)
		}
	case isa.JmpInd:
		t := int(m.Reg[in.A])
		if !m.Prog.IsBlockStart(t) {
			return m.fault(FaultBadIndirect, "vm: indirect jump to %d (not a block start) at pc %d", t, pc)
		}
		next = t
		m.branch(pc, next, true, isa.KindIndirect)
	case isa.Call:
		if len(m.stack) >= MaxCallDepth {
			return m.fault(FaultStackOverflow, "vm: call stack overflow at pc %d", pc)
		}
		m.stack = append(m.stack, int64(pc+1))
		next = int(in.Target)
		m.branch(pc, next, true, isa.KindCall)
	case isa.CallInd:
		t := int(m.Reg[in.A])
		fi := m.Prog.FuncOf(t)
		if fi < 0 || fi >= len(m.Prog.Funcs) || m.Prog.Funcs[fi].Entry != t {
			return m.fault(FaultBadCallTarget, "vm: indirect call to %d (not a function entry) at pc %d", t, pc)
		}
		if len(m.stack) >= MaxCallDepth {
			return m.fault(FaultStackOverflow, "vm: call stack overflow at pc %d", pc)
		}
		m.stack = append(m.stack, int64(pc+1))
		next = t
		m.branch(pc, next, true, isa.KindCallInd)
	case isa.Ret:
		if len(m.stack) == 0 {
			return m.fault(FaultReturnUnderflow, "vm: return with empty call stack at pc %d", pc)
		}
		next = int(m.stack[len(m.stack)-1])
		m.stack = m.stack[:len(m.stack)-1]
		m.branch(pc, next, true, isa.KindReturn)
	case isa.Halt:
		m.Halted = true
		return nil
	default:
		return m.fault(FaultBadOpcode, "vm: unknown opcode %v at pc %d", in.Op, pc)
	}

	if next < 0 || next >= len(m.Prog.Instrs) {
		return m.fault(FaultBadPC, "vm: control transfer to %d out of range at pc %d", next, pc)
	}
	m.PC = next
	return nil
}

// Run executes until the program halts or maxSteps instructions have been
// executed (ErrStepLimit). maxSteps <= 0 means no limit.
//
// With the fast engine and no fault hook, Run executes a batched inner
// dispatch loop threaded through the micro-ops' successor pointers: the
// only loop-carried state is the current micro-op and the step count, the
// step budget is folded into a single compare, and neither Halted nor the
// hook nor PC bounds are re-checked per instruction — handlers return nil
// to stop and fault out-of-range transfers themselves. A fault hook (chaos
// injection) or the legacy engine routes through the per-step slow path
// instead.
func (m *Machine) Run(maxSteps int64) error {
	if m.legacy || m.faultHook != nil {
		return m.runSlow(maxSteps)
	}
	u, limit, err := m.start(maxSteps)
	if u == nil {
		return err
	}
	steps := m.Steps
	for {
		if steps >= limit {
			m.PC, m.Steps = int(u.pc), steps
			return ErrStepLimit
		}
		steps++
		nu := u.fn(m, u)
		if nu == nil {
			m.Steps = steps
			return m.settleExec(int(u.pc), stop)
		}
		u = nu
	}
}

// start prepares a batched loop: the micro-op at m.PC and the step limit.
// A nil micro-op means the loop must not run, and err is its result.
func (m *Machine) start(maxSteps int64) (u *uop, limit int64, err error) {
	if m.Halted {
		return nil, 0, nil
	}
	pc := m.PC
	if uint(pc) >= uint(len(m.ops)) {
		if maxSteps > 0 && m.Steps >= maxSteps {
			return nil, 0, ErrStepLimit
		}
		return nil, 0, m.fault(FaultBadPC, "vm: pc %d outside program [0,%d)", pc, len(m.Prog.Instrs))
	}
	limit = int64(1) << 62
	if maxSteps > 0 {
		limit = maxSteps
	}
	return &m.ops[pc], limit, nil
}

// runSlow is the per-step execution loop: the legacy Run semantics, and the
// slow path the fast engine takes whenever a fault hook must be consulted
// between instructions.
func (m *Machine) runSlow(maxSteps int64) error {
	for !m.Halted {
		if maxSteps > 0 && m.Steps >= maxSteps {
			return ErrStepLimit
		}
		if err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}
