package dataflow

import (
	"netpath/internal/cfg"
	"netpath/internal/isa"
)

// ConstState is the flat constant-propagation lattice per register:
// unknown (⊤ in the classic formulation) or a single known value. The
// whole state carries the same Reached bit as RangeState so that the two
// analyses agree on which blocks execute.
type ConstState struct {
	Reached bool
	Known   uint32 // bitmask: register i holds Val[i]
	Val     [isa.NumRegs]int64
}

func (s *ConstState) set(r uint8, v int64) {
	s.Known |= 1 << r
	s.Val[r] = v
}

func (s *ConstState) kill(r uint8) {
	s.Known &^= 1 << r
	s.Val[r] = 0
}

// constTransferInstr applies one guest instruction, computing known values
// with the machine's own ALU (isa.Eval), so a value it derives is the value
// execution computes.
func constTransferInstr(s *ConstState, in isa.Instr) {
	switch d, ok := in.Def(); {
	case in.Op == isa.Call || in.Op == isa.CallInd:
		s.Known = 0
	case !ok:
		// No register effect.
	case in.Op.IsALU() && s.Known&in.Uses() == in.Uses():
		s.set(d, in.Result(&s.Val))
	default:
		s.kill(d)
	}
}

// constProblem is the constant-propagation analysis for one function. It
// shares the entry model of rangeProblem: the same nodes are Top entries
// and the program-start node begins with all registers zero.
type constProblem struct {
	g         *cfg.Graph
	boundary  ConstState
	topEntry  map[cfg.Node]bool
	zeroEntry map[cfg.Node]bool
}

func topConstState() ConstState  { return ConstState{Reached: true} }
func zeroConstState() ConstState { return ConstState{Reached: true, Known: (1 << isa.NumRegs) - 1} }

func (p *constProblem) Direction() Direction             { return Forward }
func (p *constProblem) Boundary(g *cfg.Graph) ConstState { return p.boundary }

func (p *constProblem) Init(g *cfg.Graph, n cfg.Node) ConstState {
	if p.topEntry[n] {
		return topConstState()
	}
	if p.zeroEntry[n] {
		return zeroConstState()
	}
	return ConstState{}
}

func (p *constProblem) Transfer(g *cfg.Graph, n cfg.Node, in ConstState) ConstState {
	if !in.Reached || n == cfg.Entry || n == cfg.Exit {
		return in
	}
	b := g.Prog.Blocks[g.BlockOf[n]]
	out := in
	for pc := b.Start; pc < b.End; pc++ {
		constTransferInstr(&out, g.Prog.Instrs[pc])
	}
	return out
}

func (p *constProblem) Join(a, b ConstState) ConstState {
	if !a.Reached {
		return b
	}
	if !b.Reached {
		return a
	}
	out := ConstState{Reached: true}
	common := a.Known & b.Known
	for r := uint8(0); r < isa.NumRegs; r++ {
		if common&(1<<r) != 0 && a.Val[r] == b.Val[r] {
			out.set(r, a.Val[r])
		}
	}
	return out
}

func (p *constProblem) Equal(a, b ConstState) bool { return a == b }
