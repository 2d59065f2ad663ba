// Superblock introspection for the translation validator.
//
// A compiled superblock's behavior is whatever its bound handler functions
// do, so a validator that trusted compiler-side metadata would re-check the
// compiler's intent rather than its output. Ops instead recovers each
// micro-op's semantics from the handler pointer itself through a registry
// built over the same tables the compiler lowers from: if the compiler ever
// binds the wrong handler, the descriptor says so.
package vm

import (
	"reflect"

	"netpath/internal/isa"
)

// SBOpKind classifies a superblock micro-op by its bound handler.
type SBOpKind uint8

const (
	// SBOpInvalid marks a handler the registry does not know; a validator
	// must reject it.
	SBOpInvalid SBOpKind = iota
	// SBOpStraight is a single straight-line guest op.
	SBOpStraight
	// SBOpGuard is a single conditional branch compiled to a guard.
	SBOpGuard
	// SBOpCall is a direct call (stack push + depth check).
	SBOpCall
	// SBOpRet is a return (stack top compare + pop).
	SBOpRet
	// SBOpJmpInd is an indirect jump (register compare).
	SBOpJmpInd
	// SBOpCallInd is an indirect call (register compare + push).
	SBOpCallInd
	// SBOpLoadAlu is a fused load+ALU pair.
	SBOpLoadAlu
	// SBOpAluStore is a fused ALU+store pair.
	SBOpAluStore
	// SBOpAluGuard is a fused ALU+guard pair.
	SBOpAluGuard
)

// SBOpInfo describes one compiled micro-op: the guest opcode(s) its bound
// handler implements plus every operand field the handler reads.
type SBOpInfo struct {
	Kind SBOpKind
	// Op is the first guest opcode; Op2 the second for fused kinds. For
	// guard kinds Op/Op2 is isa.Br or isa.BrI according to the compare form.
	Op, Op2 isa.Op
	// Cond and Flag describe guard kinds: the condition evaluated and the
	// outcome that stays on-trace.
	Cond isa.Cond
	Flag bool
	// UseImm reports the guard compares against Imm/Imm2 (BrI form).
	UseImm bool
	// Fused reports the op covers two guest steps.
	Fused bool

	Imm, Imm2     int64
	PC, PC2       int32
	Next          int32
	Guest, Guest2 int32
	A, B, C       uint8
	A2, B2, C2    uint8
}

// SBGuardInfo describes one hoisted entry guard.
type SBGuardInfo struct {
	A, B   uint8
	UseImm bool
	Want   bool
	Cond   isa.Cond
	Imm    int64
}

type sbSig struct {
	kind    SBOpKind
	op, op2 isa.Op
	cond    isa.Cond
	useImm  bool
	hasCond bool
	fused   bool
}

// sbSigs maps handler code pointers to their semantics. Populated at init
// from the same tables the compiler binds from, so it is total over every
// handler the compiler can emit.
var sbSigs = map[uintptr]sbSig{}

func sbRegister(fn sbFn, sig sbSig) {
	sbSigs[reflect.ValueOf(fn).Pointer()] = sig
}

func init() {
	for op, fn := range sbStraight {
		sbRegister(fn, sbSig{kind: SBOpStraight, op: op})
	}
	for i := range sbGuardRRFns {
		sbRegister(sbGuardRRFns[i], sbSig{kind: SBOpGuard, op: isa.Br, cond: isa.Cond(i), hasCond: true})
		sbRegister(sbGuardRIFns[i], sbSig{kind: SBOpGuard, op: isa.BrI, cond: isa.Cond(i), useImm: true, hasCond: true})
	}
	sbRegister(sbCall, sbSig{kind: SBOpCall, op: isa.Call})
	sbRegister(sbRet, sbSig{kind: SBOpRet, op: isa.Ret})
	sbRegister(sbJmpInd, sbSig{kind: SBOpJmpInd, op: isa.JmpInd})
	sbRegister(sbCallInd, sbSig{kind: SBOpCallInd, op: isa.CallInd})
	for op, fn := range sbLoadAluFns {
		sbRegister(fn, sbSig{kind: SBOpLoadAlu, op: isa.Load, op2: op, fused: true})
	}
	for op, fn := range sbAluStoreFns {
		sbRegister(fn, sbSig{kind: SBOpAluStore, op: op, op2: isa.Store, fused: true})
	}
	for op, fn := range sbAluGuardFns {
		sbRegister(fn, sbSig{kind: SBOpAluGuard, op: op, fused: true})
	}
}

// Ops returns a semantic descriptor per micro-op, derived from the bound
// handlers. Unknown handlers come back as SBOpInvalid.
func (sb *Superblock) Ops() []SBOpInfo {
	out := make([]SBOpInfo, len(sb.code))
	for i := range sb.code {
		op := &sb.code[i]
		sig := sbSigs[reflect.ValueOf(op.fn).Pointer()]
		info := SBOpInfo{
			Kind: sig.kind, Op: sig.op, Op2: sig.op2,
			Fused: sig.fused, Flag: op.flag,
			Imm: op.imm, Imm2: op.imm2,
			PC: op.pc, PC2: op.pc2, Next: op.next,
			Guest: op.guest, Guest2: op.guest2,
			A: op.a, B: op.b, C: op.c,
			A2: op.a2, B2: op.b2, C2: op.c2,
		}
		if sig.hasCond {
			info.Cond = sig.cond
			info.UseImm = sig.useImm
		}
		if sig.kind == SBOpAluGuard {
			// sbGuard2 evaluates op.cond generically; c2 is the form flag.
			info.Cond = op.cond
			info.UseImm = op.c2 == 1
			if info.UseImm {
				info.Op2 = isa.BrI
			} else {
				info.Op2 = isa.Br
			}
		}
		out[i] = info
	}
	return out
}

// Guards returns the hoisted entry guards.
func (sb *Superblock) Guards() []SBGuardInfo {
	out := make([]SBGuardInfo, len(sb.guards))
	for i, g := range sb.guards {
		out[i] = SBGuardInfo{A: g.a, B: g.b, UseImm: g.useImm, Want: g.want, Cond: g.cond, Imm: g.imm}
	}
	return out
}
