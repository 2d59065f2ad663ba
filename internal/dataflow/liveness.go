package dataflow

import (
	"netpath/internal/cfg"
	"netpath/internal/isa"
)

// LiveState is a register-liveness bitmask: bit r set means register r may
// be read before its next write on some path from this point.
type LiveState uint32

// Live reports whether register r is live in s.
func (s LiveState) Live(r uint8) bool { return s&(1<<r) != 0 }

// Count returns the number of live registers.
func (s LiveState) Count() int {
	n := 0
	for v := s; v != 0; v &= v - 1 {
		n++
	}
	return n
}

const allLive LiveState = (1 << isa.NumRegs) - 1

// liveTransferInstr applies one instruction backward: removes the defined
// register, then adds the used ones. Call-type instructions make every
// register live — the callee may read anything (no calling convention
// restricts argument registers), and so does a return (the caller may
// read anything the callee left behind).
func liveTransferInstr(s LiveState, in isa.Instr) LiveState {
	switch in.Op {
	case isa.Call, isa.CallInd, isa.Ret, isa.Halt, isa.JmpInd:
		return allLive
	}
	if d, ok := in.Def(); ok {
		s &^= 1 << d
	}
	return s | LiveState(in.Uses())
}

// liveProblem is backward register liveness for one function. The boundary
// (out of Exit) is all-live: control leaving the function — via Ret, Halt,
// or a branch routed out of the function — exposes every register to the
// caller or to whatever runs next.
type liveProblem struct{ g *cfg.Graph }

func (p *liveProblem) Direction() Direction            { return Backward }
func (p *liveProblem) Boundary(g *cfg.Graph) LiveState { return allLive }

func (p *liveProblem) Init(g *cfg.Graph, n cfg.Node) LiveState {
	// Blocks with no static successors (indirect jumps) must treat every
	// register as live at their end.
	if n != cfg.Entry && n != cfg.Exit && len(g.Succs[n]) == 0 {
		return allLive
	}
	return 0
}

func (p *liveProblem) Transfer(g *cfg.Graph, n cfg.Node, in LiveState) LiveState {
	if n == cfg.Entry || n == cfg.Exit {
		return in
	}
	b := g.Prog.Blocks[g.BlockOf[n]]
	out := in
	for pc := b.End - 1; pc >= b.Start; pc-- {
		out = liveTransferInstr(out, g.Prog.Instrs[pc])
	}
	return out
}

func (p *liveProblem) Join(a, b LiveState) LiveState { return a | b }
func (p *liveProblem) Equal(a, b LiveState) bool     { return a == b }
