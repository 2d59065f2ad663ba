// Package staticpred predicts hot paths with no profile at all: a
// Ball–Larus-style heuristic model assigns every conditional branch a taken
// probability from the program text, its CFG, and its initialized data
// image, and from each statically identified path head the
// maximum-likelihood forward path is emitted as the predicted hot path. The scheme's prediction delay is zero and its
// counter space is zero — the "less is more" endpoint where even NET's
// head counters are dropped, at the price of heuristic (sometimes phantom)
// predictions. Scored through the same metrics machinery as NET and
// path-profile prediction, it anchors the other end of the paper's
// accuracy-versus-overhead trade-off.
package staticpred

import (
	"cmp"
	"slices"
	"sort"

	"netpath/internal/cfg"
	"netpath/internal/dataflow"
	"netpath/internal/isa"
	"netpath/internal/prog"
)

// Branch heuristic probabilities (Ball & Larus, "Branch prediction for
// free", adapted to this ISA). Values are P(taken) contributions; several
// applicable heuristics are fused with the Wu–Larus evidence combination.
const (
	// probLoopBack: a taken-backward conditional is a loop latch; loops
	// iterate, so the back edge is strongly preferred.
	probLoopBack = 0.88
	// probStayInLoop: at a branch where one side leaves a natural loop and
	// the other stays, prefer staying (the loop-exit heuristic).
	probStayInLoop = 0.80
	// probGuardTaken: an equality test against an immediate is a guard for
	// an uncommon case; rarely taken.
	probGuardTaken = 0.30
	// probRetTaken: a side whose block immediately returns is an early-out;
	// prefer the other side (the return heuristic).
	probRetTaken = 0.28
)

// condProb is the opcode heuristic: the prior P(taken) for each comparison,
// before structural evidence. Equality rarely holds between arbitrary
// values; inequality usually does; ordered comparisons carry little signal.
func condProb(c isa.Cond) float64 {
	switch c {
	case isa.Eq:
		return 0.34
	case isa.Ne:
		return 0.66
	case isa.Lt, isa.Le:
		return 0.45
	case isa.Gt, isa.Ge:
		return 0.55
	}
	return 0.5
}

// combine fuses two independent taken-probability estimates (Wu & Larus,
// "Static branch frequency and program profile analysis"): treat each as
// evidence and renormalize the joint.
func combine(p1, p2 float64) float64 {
	num := p1 * p2
	den := num + (1-p1)*(1-p2)
	if den == 0 {
		return 0.5
	}
	return num / den
}

// Analysis holds the per-function CFGs and loop structure the heuristics
// consult. Build one per program and reuse it across walks.
type Analysis struct {
	Prog   *prog.Program
	Graphs []*cfg.Graph

	// inner[fi][node] is the sorted body of the innermost natural loop
	// containing node (nil when the node is in no loop).
	inner [][][]cfg.Node

	// data holds the program's initial memory values, sorted — the operand
	// distribution the immediate heuristic estimates against.
	data []int64

	// facts is the whole-program dataflow analysis (nil when it failed):
	// branches it decides are certainties, not heuristics, and override
	// every probabilistic estimate below.
	facts *dataflow.Facts
}

// Analyze builds the CFGs and loop maps for p.
func Analyze(p *prog.Program) (*Analysis, error) {
	gs, err := cfg.BuildAll(p)
	if err != nil {
		return nil, err
	}
	a := &Analysis{Prog: p, Graphs: gs, inner: make([][][]cfg.Node, len(gs))}
	for fi, g := range gs {
		in := make([][]cfg.Node, g.NumNodes())
		loops := g.NaturalLoops()
		// Largest bodies first, so the smallest enclosing loop wins. Natural
		// loops with distinct heads are nested or disjoint, so loops of
		// equal size share no node and their order cannot matter; the
		// stable sort keeps it fixed all the same.
		slices.SortStableFunc(loops, func(x, y cfg.Loop) int {
			return cmp.Compare(len(y.Body), len(x.Body))
		})
		for _, l := range loops {
			for _, u := range l.Body {
				in[u] = l.Body
			}
		}
		a.inner[fi] = in
	}
	a.data = make([]int64, 0, len(p.InitMem))
	for _, mi := range p.InitMem {
		a.data = append(a.data, mi.Value)
	}
	sort.Slice(a.data, func(i, j int) bool { return a.data[i] < a.data[j] })
	// Dataflow facts upgrade heuristics to proofs where the ranges decide a
	// branch. A failed analysis (impossible on a verified program) just
	// leaves the model purely heuristic.
	if facts, err := dataflow.Analyze(p); err == nil {
		a.facts = facts
	}
	return a, nil
}

// immClamp keeps the immediate heuristic's estimates away from the 0/1
// absolutes: the data distribution is an approximation, never certainty.
const immClamp = 0.02

// immProb estimates P(cond(v, imm)) for an operand v drawn from the
// program's initialized data region. The data region is part of the static
// program image — no execution is consulted — and in this ISA branch
// operands are overwhelmingly data loads, so its value distribution is a
// strong prior for immediate comparisons. Returns (0.5, false) when the
// program carries no initial data to estimate from.
func (a *Analysis) immProb(c isa.Cond, imm int64) (float64, bool) {
	n := len(a.data)
	if n == 0 {
		return 0.5, false
	}
	// lt = #(v < imm), le = #(v <= imm).
	lt := sort.Search(n, func(i int) bool { return a.data[i] >= imm })
	le := sort.Search(n, func(i int) bool { return a.data[i] > imm })
	var p float64
	switch c {
	case isa.Lt:
		p = float64(lt) / float64(n)
	case isa.Le:
		p = float64(le) / float64(n)
	case isa.Gt:
		p = 1 - float64(le)/float64(n)
	case isa.Ge:
		p = 1 - float64(lt)/float64(n)
	case isa.Eq:
		p = float64(le-lt) / float64(n)
	case isa.Ne:
		p = 1 - float64(le-lt)/float64(n)
	default:
		return 0.5, false
	}
	if p < immClamp {
		p = immClamp
	} else if p > 1-immClamp {
		p = 1 - immClamp
	}
	return p, true
}

// nodeAt returns the CFG node of the block starting (or containing) addr in
// function fi, or -1 when addr lies outside fi.
func (a *Analysis) nodeAt(fi, addr int) cfg.Node {
	bi := a.Prog.BlockAt(addr)
	if bi < 0 || a.Prog.Blocks[bi].Func != fi {
		return -1
	}
	if n, ok := a.Graphs[fi].NodeOf(bi); ok {
		return n
	}
	return -1
}

// returnsImmediately reports whether the block containing addr terminates
// in a return.
func (a *Analysis) returnsImmediately(addr int) bool {
	bi := a.Prog.BlockAt(addr)
	return bi >= 0 && a.Prog.Instrs[a.Prog.Blocks[bi].End-1].Op == isa.Ret
}

// TakenProb returns the heuristic probability that the conditional branch
// at pc is taken.
func (a *Analysis) TakenProb(pc int) float64 {
	in := a.Prog.Instrs[pc]
	t := int(in.Target)
	// Decided branches are certainties: the range analysis proved every
	// execution reaching pc resolves the same way, so no heuristic evidence
	// can move the estimate.
	if a.facts != nil {
		switch a.facts.Branch(int32(pc)) {
		case dataflow.BranchAlwaysTaken:
			return 1
		case dataflow.BranchNeverTaken:
			return 0
		}
	}
	// Loop branch heuristic: a taken-backward conditional is a latch, and
	// loops iterate. This dominates all other evidence.
	if t <= pc {
		return probLoopBack
	}

	p := condProb(in.Cond)
	if in.Op == isa.BrI {
		// Immediate heuristic: estimate the comparison outcome against the
		// static data distribution. Far stronger evidence than the opcode
		// prior when the program ships initial data.
		if pi, ok := a.immProb(in.Cond, in.Imm); ok {
			p = combine(p, pi)
		}
		if in.Cond == isa.Eq {
			p = combine(p, probGuardTaken)
		}
	}

	// Return heuristic: prefer the side that does not immediately return.
	tRet, fRet := a.returnsImmediately(t), a.returnsImmediately(pc+1)
	if tRet && !fRet {
		p = combine(p, probRetTaken)
	} else if fRet && !tRet {
		p = combine(p, 1-probRetTaken)
	}

	// Loop-exit heuristic: when exactly one side leaves the innermost loop,
	// prefer the side that stays.
	fi := a.Prog.FuncOf(pc)
	if fi >= 0 {
		if node := a.nodeAt(fi, pc); node >= 0 {
			if body := a.inner[fi][node]; body != nil {
				tn, fn := a.nodeAt(fi, t), a.nodeAt(fi, pc+1)
				_, tIn := slices.BinarySearch(body, tn)
				_, fIn := slices.BinarySearch(body, fn)
				if tIn != fIn {
					if tIn {
						p = combine(p, probStayInLoop)
					} else {
						p = combine(p, 1-probStayInLoop)
					}
				}
			}
		}
	}
	return p
}
