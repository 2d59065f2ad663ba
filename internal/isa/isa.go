// Package isa defines the instruction set of the toy register machine that
// serves as the execution substrate for the hot path prediction experiments.
//
// The machine is deliberately small: a fixed register file, a flat word
// memory, and a control-flow repertoire rich enough to exercise every path
// profiling concept from the paper — conditional branches, unconditional
// jumps, indirect jumps (switch dispatch), direct and indirect calls,
// returns, and backward branches that delimit interprocedural forward paths.
//
// Instructions are addressed by their index in a flat instruction array;
// "address" throughout this repository means that index. A branch is
// backward when it is taken and its target address is less than or equal to
// the branch's own address (IsBackward). The "or equal" half is the
// tie-breaking rule for self-branches: a taken branch whose target is its
// own address re-executes the same instruction, which is a loop of body
// length one, so it terminates the current forward path exactly like any
// other loop back edge. Every layer that classifies transfers — the VM's
// event stream, the path tracker, the boa path constructor and the static
// CFG back-edge detector — must share this rule, or the same program would
// yield different path boundaries depending on who observed it.
package isa

import "fmt"

// NumRegs is the size of the register file. Registers are named r0..r31.
const NumRegs = 32

// Op enumerates the machine's opcodes.
type Op uint8

// Opcode space. Three-address ALU ops compute A := B op C; immediate forms
// compute A := B op Imm. Control transfer ops are the only instructions
// that may end a basic block. The order matters: MovI through RemI are
// exactly the ops Eval defines (Op.IsALU).
const (
	Nop Op = iota

	// Data movement.
	MovI // A := Imm
	Mov  // A := B

	// Three-address ALU.
	Add // A := B + C
	Sub // A := B - C
	Mul // A := B * C
	Div // A := B / C (C==0 yields 0)
	Rem // A := B % C (C==0 yields 0)
	And // A := B & C
	Or  // A := B | C
	Xor // A := B ^ C
	Shl // A := B << (C & 63)
	Shr // A := B >> (C & 63) (arithmetic)

	// Immediate ALU.
	AddI // A := B + Imm
	MulI // A := B * Imm
	AndI // A := B & Imm
	RemI // A := B % Imm (Imm==0 yields 0)

	// Memory. Addresses are word indices.
	Load  // A := Mem[B + Imm]
	Store // Mem[B + Imm] := A

	// Control transfer.
	Jmp     // pc := Target
	Br      // if Cond(A, B) { pc := Target } else fall through
	BrI     // if Cond(A, Imm) { pc := Target } else fall through
	JmpInd  // pc := A (value must be a valid block entry address)
	Call    // push return address; pc := Target
	CallInd // push return address; pc := A
	Ret     // pc := popped return address
	Halt    // stop the machine

	numOps
)

var opNames = [numOps]string{
	Nop:     "nop",
	MovI:    "movi",
	Mov:     "mov",
	Add:     "add",
	Sub:     "sub",
	Mul:     "mul",
	Div:     "div",
	Rem:     "rem",
	And:     "and",
	Or:      "or",
	Xor:     "xor",
	Shl:     "shl",
	Shr:     "shr",
	AddI:    "addi",
	MulI:    "muli",
	AndI:    "andi",
	RemI:    "remi",
	Load:    "load",
	Store:   "store",
	Jmp:     "jmp",
	Br:      "br",
	BrI:     "bri",
	JmpInd:  "jmpind",
	Call:    "call",
	CallInd: "callind",
	Ret:     "ret",
	Halt:    "halt",
}

// String returns the mnemonic for the opcode.
func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Valid reports whether op is a defined opcode.
func (op Op) Valid() bool { return op < numOps }

// IsALU reports whether the opcode writes register A with a value Eval
// computes from its operands: the data moves MovI and Mov, and the
// three-address and immediate ALU ops. Load is the only other write.
func (op Op) IsALU() bool { return op >= MovI && op <= RemI }

// IsControl reports whether the opcode transfers control (and therefore must
// terminate a basic block).
func (op Op) IsControl() bool {
	switch op {
	case Jmp, Br, BrI, JmpInd, Call, CallInd, Ret, Halt:
		return true
	}
	return false
}

// IsConditional reports whether the opcode is a conditional branch.
func (op Op) IsConditional() bool { return op == Br || op == BrI }

// IsIndirect reports whether the opcode's target is computed at runtime.
func (op Op) IsIndirect() bool { return op == JmpInd || op == CallInd }

// IsBackward reports whether a control transfer from pc to target with the
// given taken outcome is a backward branch — the event that terminates an
// interprocedural forward path (Section 3 of the paper). A transfer is
// backward iff it is taken and target <= pc. The equality half is the
// self-branch tie-break: target == pc forms a single-instruction loop, so
// it counts as backward (a back edge, a path boundary), never as forward.
// This is the single definition shared by the VM event stream, the path
// tracker, the boa constructor and the cfg back-edge detector.
func IsBackward(pc, target int, taken bool) bool {
	return taken && target <= pc
}

// Cond enumerates comparison conditions for conditional branches.
type Cond uint8

// Comparison conditions.
const (
	Eq Cond = iota // ==
	Ne             // !=
	Lt             // <  (signed)
	Le             // <=
	Gt             // >
	Ge             // >=

	numConds
)

var condNames = [numConds]string{Eq: "eq", Ne: "ne", Lt: "lt", Le: "le", Gt: "gt", Ge: "ge"}

// String returns the mnemonic for the condition.
func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("cond(%d)", uint8(c))
}

// OpByName returns the opcode whose mnemonic is name.
func OpByName(name string) (Op, bool) {
	op, ok := opByName[name]
	return op, ok
}

// CondByName returns the condition whose mnemonic is name.
func CondByName(name string) (Cond, bool) {
	for c, n := range condNames {
		if n == name {
			return Cond(c), true
		}
	}
	return 0, false
}

var opByName = func() map[string]Op {
	m := make(map[string]Op, numOps)
	for op, n := range opNames {
		m[n] = Op(op)
	}
	return m
}()

// Valid reports whether c is a defined condition.
func (c Cond) Valid() bool { return c < numConds }

// Eval evaluates the condition on two operand values.
func (c Cond) Eval(a, b int64) bool {
	switch c {
	case Eq:
		return a == b
	case Ne:
		return a != b
	case Lt:
		return a < b
	case Le:
		return a <= b
	case Gt:
		return a > b
	case Ge:
		return a >= b
	}
	return false
}

// Instr is a single machine instruction. Fields are interpreted per opcode;
// unused fields must be zero so that instructions compare cleanly.
type Instr struct {
	Op     Op
	Cond   Cond  // Br, BrI only
	A      uint8 // destination / source register per opcode
	B      uint8 // source register
	C      uint8 // source register
	Imm    int64 // immediate operand
	Target int32 // branch/call target address
}

// Register operand roles per opcode: the single definition of which
// registers an instruction reads and writes (Def, Uses). Call, CallInd and
// Ret write no register; their effect is on pc and the call stack.
const (
	readsA uint8 = 1 << iota
	readsB
	readsC
	writesA
)

const (
	aluRR = writesA | readsB | readsC // A := B op C
	aluRI = writesA | readsB          // A := B op Imm
)

var opRoles = [numOps]uint8{
	MovI: writesA,
	Mov:  writesA | readsB,
	Add:  aluRR, Sub: aluRR, Mul: aluRR, Div: aluRR, Rem: aluRR,
	And: aluRR, Or: aluRR, Xor: aluRR, Shl: aluRR, Shr: aluRR,
	AddI: aluRI, MulI: aluRI, AndI: aluRI, RemI: aluRI,
	Load:    writesA | readsB,
	Store:   readsA | readsB,
	Br:      readsA | readsB,
	BrI:     readsA,
	JmpInd:  readsA,
	CallInd: readsA,
}

func (in Instr) roles() uint8 {
	if !in.Op.Valid() {
		return 0
	}
	return opRoles[in.Op]
}

// Def returns the register the instruction writes, if any: A for the
// IsALU ops and Load.
func (in Instr) Def() (uint8, bool) {
	if in.roles()&writesA != 0 {
		return in.A, true
	}
	return 0, false
}

// Uses returns the registers the instruction reads as a bitmask (bit r for
// register r). A register number outside the file contributes no bit.
func (in Instr) Uses() uint32 {
	r := in.roles()
	var m uint32
	if r&readsA != 0 {
		m |= 1 << in.A
	}
	if r&readsB != 0 {
		m |= 1 << in.B
	}
	if r&readsC != 0 {
		m |= 1 << in.C
	}
	return m
}

// Eval is the machine's ALU: the value an IsALU op writes to A, given b,
// the value of register B, and c, the value of register C for the
// three-address forms or Imm for MovI and the immediate forms. Mov yields
// b and MovI yields c. Division and remainder by zero yield 0, shift
// counts use their low six bits, and Shr is arithmetic. Other ops yield 0.
func Eval(op Op, b, c int64) int64 {
	switch op {
	case MovI:
		return c
	case Mov:
		return b
	case Add, AddI:
		return b + c
	case Sub:
		return b - c
	case Mul, MulI:
		return b * c
	case Div:
		if c == 0 {
			return 0
		}
		return b / c
	case Rem, RemI:
		if c == 0 {
			return 0
		}
		return b % c
	case And, AndI:
		return b & c
	case Or:
		return b | c
	case Xor:
		return b ^ c
	case Shl:
		return b << (uint64(c) & 63)
	case Shr:
		return b >> (uint64(c) & 63)
	}
	return 0
}

// Result is Eval over the instruction's own operands, reading register
// values from regs: the value an IsALU instruction writes to A.
func (in Instr) Result(regs *[NumRegs]int64) int64 {
	c := in.Imm
	if in.roles()&readsC != 0 {
		c = regs[in.C]
	}
	return Eval(in.Op, regs[in.B], c)
}

// Validate checks structural validity of the instruction: defined opcode and
// condition, and register operands in range. It does not check branch
// targets; that requires program context (see prog.Program.Validate).
func (in Instr) Validate() error {
	if !in.Op.Valid() {
		return fmt.Errorf("isa: invalid opcode %d", uint8(in.Op))
	}
	if in.Op.IsConditional() && !in.Cond.Valid() {
		return fmt.Errorf("isa: invalid condition %d on %v", uint8(in.Cond), in.Op)
	}
	if int(in.A) >= NumRegs || int(in.B) >= NumRegs || int(in.C) >= NumRegs {
		return fmt.Errorf("isa: register out of range in %v (a=%d b=%d c=%d)", in.Op, in.A, in.B, in.C)
	}
	return nil
}

// String renders the instruction in assembly-like form.
func (in Instr) String() string {
	switch in.Op {
	case Nop, Halt, Ret:
		return in.Op.String()
	case MovI:
		return fmt.Sprintf("movi r%d, %d", in.A, in.Imm)
	case Mov:
		return fmt.Sprintf("mov r%d, r%d", in.A, in.B)
	case Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr:
		return fmt.Sprintf("%s r%d, r%d, r%d", in.Op, in.A, in.B, in.C)
	case AddI, MulI, AndI, RemI:
		return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.A, in.B, in.Imm)
	case Load:
		return fmt.Sprintf("load r%d, [r%d+%d]", in.A, in.B, in.Imm)
	case Store:
		return fmt.Sprintf("store [r%d+%d], r%d", in.B, in.Imm, in.A)
	case Jmp:
		return fmt.Sprintf("jmp @%d", in.Target)
	case Br:
		return fmt.Sprintf("br.%s r%d, r%d, @%d", in.Cond, in.A, in.B, in.Target)
	case BrI:
		return fmt.Sprintf("bri.%s r%d, %d, @%d", in.Cond, in.A, in.Imm, in.Target)
	case JmpInd:
		return fmt.Sprintf("jmpind r%d", in.A)
	case Call:
		return fmt.Sprintf("call @%d", in.Target)
	case CallInd:
		return fmt.Sprintf("callind r%d", in.A)
	}
	return in.Op.String()
}

// BranchKind classifies dynamic control transfer events for the profiling
// layers. Conditional branches contribute outcome bits to path signatures,
// indirect transfers contribute their target addresses, and all taken
// backward transfers terminate a forward path.
type BranchKind uint8

// Branch kinds.
const (
	KindCond     BranchKind = iota // Br, BrI
	KindJump                       // Jmp
	KindIndirect                   // JmpInd
	KindCall                       // Call
	KindCallInd                    // CallInd
	KindReturn                     // Ret

	numKinds
)

var kindNames = [numKinds]string{
	KindCond:     "cond",
	KindJump:     "jump",
	KindIndirect: "indirect",
	KindCall:     "call",
	KindCallInd:  "callind",
	KindReturn:   "return",
}

// String returns a short name for the branch kind.
func (k BranchKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// KindOf returns the branch kind for a control opcode, and ok=false for
// non-control opcodes and Halt (which produces no branch event).
func KindOf(op Op) (k BranchKind, ok bool) {
	switch op {
	case Br, BrI:
		return KindCond, true
	case Jmp:
		return KindJump, true
	case JmpInd:
		return KindIndirect, true
	case Call:
		return KindCall, true
	case CallInd:
		return KindCallInd, true
	case Ret:
		return KindReturn, true
	}
	return 0, false
}
