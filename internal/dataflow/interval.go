package dataflow

import (
	"fmt"
	"math"
	"math/bits"

	"netpath/internal/cfg"
	"netpath/internal/isa"
)

// Interval is an inclusive signed range [Lo, Hi]. The full range
// [MinInt64, MaxInt64] is Top ("no information"); there is no empty
// interval — contradictions are expressed by marking the whole state
// unreachable instead.
//
// Soundness note: guest arithmetic wraps (two's complement), so any
// transfer whose endpoint computation could overflow must return Top, not a
// saturated range. Saturating would claim e.g. Add(MaxInt64, 1) ≥ Lo, when
// the wrapped result is MinInt64.
type Interval struct {
	Lo, Hi int64
}

// Full returns the Top interval covering every int64.
func Full() Interval { return Interval{math.MinInt64, math.MaxInt64} }

// Point returns the singleton interval {v}.
func Point(v int64) Interval { return Interval{v, v} }

// IsFull reports whether iv is the Top interval.
func (iv Interval) IsFull() bool { return iv.Lo == math.MinInt64 && iv.Hi == math.MaxInt64 }

// IsPoint reports whether iv holds exactly one value.
func (iv Interval) IsPoint() bool { return iv.Lo == iv.Hi }

// Contains reports whether v lies in iv.
func (iv Interval) Contains(v int64) bool { return iv.Lo <= v && v <= iv.Hi }

// Within reports whether iv lies entirely inside [lo, hi].
func (iv Interval) Within(lo, hi int64) bool { return lo <= iv.Lo && iv.Hi <= hi }

func (iv Interval) String() string {
	if iv.IsFull() {
		return "⊤"
	}
	if iv.IsPoint() {
		return fmt.Sprintf("{%d}", iv.Lo)
	}
	lo, hi := "-inf", "+inf"
	if iv.Lo != math.MinInt64 {
		lo = fmt.Sprintf("%d", iv.Lo)
	}
	if iv.Hi != math.MaxInt64 {
		hi = fmt.Sprintf("%d", iv.Hi)
	}
	return fmt.Sprintf("[%s,%s]", lo, hi)
}

// hull returns the smallest interval containing both a and b.
func hull(a, b Interval) Interval {
	if b.Lo < a.Lo {
		a.Lo = b.Lo
	}
	if b.Hi > a.Hi {
		a.Hi = b.Hi
	}
	return a
}

// intersect returns a ∩ b and whether it is nonempty.
func intersect(a, b Interval) (Interval, bool) {
	if b.Lo > a.Lo {
		a.Lo = b.Lo
	}
	if b.Hi < a.Hi {
		a.Hi = b.Hi
	}
	return a, a.Lo <= a.Hi
}

func addOv(a, b int64) (int64, bool) {
	s := a + b
	// Overflow iff operands share a sign and the sum's sign differs.
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

func subOv(a, b int64) (int64, bool) {
	if b == math.MinInt64 {
		// a - MinInt64 overflows unless a is negative enough; only a == -1
		// ... easier: a - MinInt64 = a + (MaxInt64+1) overflows for a >= 0.
		if a >= 0 {
			return 0, false
		}
		return a - b, true
	}
	return addOv(a, -b)
}

func mulOv(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	// MinInt64 * -1 wraps back to MinInt64 and the division check below
	// cannot see it (MinInt64 / -1 wraps the same way).
	if (a == math.MinInt64 && b == -1) || (b == math.MinInt64 && a == -1) {
		return 0, false
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	return p, true
}

// addIv returns the interval sum, Top on any endpoint overflow.
func addIv(a, b Interval) Interval {
	lo, ok1 := addOv(a.Lo, b.Lo)
	hi, ok2 := addOv(a.Hi, b.Hi)
	if !ok1 || !ok2 {
		return Full()
	}
	return Interval{lo, hi}
}

// subIv returns the interval difference, Top on any endpoint overflow.
func subIv(a, b Interval) Interval {
	lo, ok1 := subOv(a.Lo, b.Hi)
	hi, ok2 := subOv(a.Hi, b.Lo)
	if !ok1 || !ok2 {
		return Full()
	}
	return Interval{lo, hi}
}

// mulIv returns the interval product, Top on any endpoint overflow.
func mulIv(a, b Interval) Interval {
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, x := range [2]int64{a.Lo, a.Hi} {
		for _, y := range [2]int64{b.Lo, b.Hi} {
			p, ok := mulOv(x, y)
			if !ok {
				return Full()
			}
			if p < lo {
				lo = p
			}
			if p > hi {
				hi = p
			}
		}
	}
	return Interval{lo, hi}
}

// divIv models the guest's Div: x/0 = 0, and MinInt64/-1 wraps to MinInt64
// (Go defines the wrap; there is no panic). A negative divisor flips the
// quotient's sign, so the only divisor-free bound is symmetric: |q| never
// exceeds |a| when no wrap occurs, and the wrap case returns the dividend
// itself. |MinInt64| is not representable, so a dividend range touching it
// degrades to Top.
func divIv(a, b Interval) Interval {
	if a.Lo == math.MinInt64 {
		return Full()
	}
	m := a.Lo
	if m < 0 {
		m = -m
	}
	if n := a.Hi; n < 0 {
		if -n > m {
			m = -n
		}
	} else if n > m {
		m = n
	}
	return Interval{-m, m}
}

// remIv models the guest's Rem: x%0 = 0; otherwise |r| < |b| and r has the
// sign of the dividend. Without a known divisor we still know the result's
// magnitude never exceeds the dividend's.
func remIv(a, b Interval) Interval {
	lo, hi := a.Lo, a.Hi
	if lo > 0 {
		lo = 0
	}
	if hi < 0 {
		hi = 0
	}
	if !b.IsFull() && b.Lo != math.MinInt64 {
		// |r| <= max(|b.Lo|, |b.Hi|) - 1 when divisor nonzero, but the
		// divisor range may include 0 (giving 0, already covered).
		m := b.Lo
		if m < 0 {
			m = -m
		}
		if n := b.Hi; n < 0 {
			if -n > m {
				m = -n
			}
		} else if n > m {
			m = n
		}
		if m > 0 {
			if lo < -(m - 1) {
				lo = -(m - 1)
			}
			if hi > m-1 {
				hi = m - 1
			}
		}
	}
	if lo > hi {
		// Divisor range was the single value 0 with a nonzero-sign
		// dividend; result is exactly 0.
		return Point(0)
	}
	return Interval{lo, hi}
}

// andIv returns a sound range for a & b. For nonnegative operands the
// result is bounded by min of the operand bounds' bit widths; if either
// side may be negative, the sign of the result is that of the conjunction,
// which we only bound when both are known-nonnegative.
func andIv(a, b Interval) Interval {
	if a.Lo >= 0 && b.Lo >= 0 {
		hi := a.Hi
		if b.Hi < hi {
			hi = b.Hi
		}
		return Interval{0, hi}
	}
	if a.Lo >= 0 {
		// b may be negative but x & y with x >= 0 is in [0, x].
		return Interval{0, a.Hi}
	}
	if b.Lo >= 0 {
		return Interval{0, b.Hi}
	}
	return Full()
}

// orIv returns a sound range for a | b: for nonnegative operands the result
// is nonnegative and below the next power of two covering both highs.
func orIv(a, b Interval) Interval {
	if a.Lo >= 0 && b.Lo >= 0 {
		m := a.Hi
		if b.Hi > m {
			m = b.Hi
		}
		if m == math.MaxInt64 {
			return Interval{0, math.MaxInt64}
		}
		n := bits.Len64(uint64(m))
		return Interval{0, int64(1)<<n - 1}
	}
	return Full()
}

// xorIv returns a sound range for a ^ b, nonzero only for known-nonnegative
// operands (same power-of-two bound as orIv).
func xorIv(a, b Interval) Interval {
	return orIv(a, b)
}

// shlIv models x << (k & 63). Only a point shift count with in-range
// endpoint math is tracked; anything else is Top.
func shlIv(a, b Interval) Interval {
	if !b.IsPoint() {
		return Full()
	}
	k := uint(b.Lo) & 63
	if k == 0 {
		return a
	}
	lo, ok1 := mulOv(a.Lo, int64(1)<<k)
	hi, ok2 := mulOv(a.Hi, int64(1)<<k)
	if k >= 63 || !ok1 || !ok2 {
		return Full()
	}
	return Interval{lo, hi}
}

// shrIv models the arithmetic shift x >> (k & 63). Arithmetic shift is
// monotone, so shifting both endpoints is exact for a point count.
func shrIv(a, b Interval) Interval {
	if !b.IsPoint() {
		return Full()
	}
	k := uint(b.Lo) & 63
	return Interval{a.Lo >> k, a.Hi >> k}
}

// RangeState is the per-node state of the value-range analysis: one
// interval per guest register, plus a reachability bit. Unreached is the
// lattice bottom; joining anything with an unreached state returns the
// other operand.
type RangeState struct {
	Reached bool
	Reg     [isa.NumRegs]Interval
}

func topRangeState() RangeState {
	var s RangeState
	s.Reached = true
	for i := range s.Reg {
		s.Reg[i] = Full()
	}
	return s
}

func zeroRangeState() RangeState {
	var s RangeState
	s.Reached = true
	for i := range s.Reg {
		s.Reg[i] = Point(0)
	}
	return s
}

// rangeTransferInstr applies one guest instruction to a range state.
// Call-type instructions clobber every register: the ISA has no
// callee-save convention, so anything may come back modified.
func rangeTransferInstr(s *RangeState, in isa.Instr) {
	switch in.Op {
	case isa.MovI:
		s.Reg[in.A] = Point(in.Imm)
	case isa.Mov:
		s.Reg[in.A] = s.Reg[in.B]
	case isa.Add:
		s.Reg[in.A] = addIv(s.Reg[in.B], s.Reg[in.C])
	case isa.Sub:
		s.Reg[in.A] = subIv(s.Reg[in.B], s.Reg[in.C])
	case isa.Mul:
		s.Reg[in.A] = mulIv(s.Reg[in.B], s.Reg[in.C])
	case isa.Div:
		s.Reg[in.A] = divIv(s.Reg[in.B], s.Reg[in.C])
	case isa.Rem:
		s.Reg[in.A] = remIv(s.Reg[in.B], s.Reg[in.C])
	case isa.And:
		s.Reg[in.A] = andIv(s.Reg[in.B], s.Reg[in.C])
	case isa.Or:
		s.Reg[in.A] = orIv(s.Reg[in.B], s.Reg[in.C])
	case isa.Xor:
		s.Reg[in.A] = xorIv(s.Reg[in.B], s.Reg[in.C])
	case isa.Shl:
		s.Reg[in.A] = shlIv(s.Reg[in.B], s.Reg[in.C])
	case isa.Shr:
		s.Reg[in.A] = shrIv(s.Reg[in.B], s.Reg[in.C])
	case isa.AddI:
		s.Reg[in.A] = addIv(s.Reg[in.B], Point(in.Imm))
	case isa.MulI:
		s.Reg[in.A] = mulIv(s.Reg[in.B], Point(in.Imm))
	case isa.AndI:
		s.Reg[in.A] = andIv(s.Reg[in.B], Point(in.Imm))
	case isa.RemI:
		s.Reg[in.A] = remIv(s.Reg[in.B], Point(in.Imm))
	case isa.Load:
		s.Reg[in.A] = Full()
	case isa.Store, isa.Nop, isa.Jmp, isa.Br, isa.BrI, isa.JmpInd, isa.Ret, isa.Halt:
		// No register effect.
	case isa.Call, isa.CallInd:
		// The callee may write any register before returning here.
		for i := range s.Reg {
			s.Reg[i] = Full()
		}
	}
}

// refineCond narrows (a, b) under the assumption "a cond b == truth".
// ok=false means the assumption is contradictory (the edge is dead).
func refineCond(a, b Interval, cond isa.Cond, truth bool) (Interval, Interval, bool) {
	if !truth {
		neg, flip := negateCond(cond)
		if !flip {
			return a, b, true
		}
		cond = neg
		truth = true
	}
	switch cond {
	case isa.Eq:
		m, ok := intersect(a, b)
		return m, m, ok
	case isa.Ne:
		// Only prunable when one side is a point at the other's endpoint.
		if b.IsPoint() {
			if a.IsPoint() && a.Lo == b.Lo {
				return a, b, false
			}
			if a.Lo == b.Lo && a.Lo < math.MaxInt64 {
				a.Lo++
			}
			if a.Hi == b.Lo && a.Hi > math.MinInt64 {
				a.Hi--
			}
			if a.Lo > a.Hi {
				return a, b, false
			}
		}
		return a, b, true
	case isa.Lt: // a < b
		if b.Hi == math.MinInt64 {
			return a, b, false
		}
		na, ok1 := intersect(a, Interval{math.MinInt64, b.Hi - 1})
		if !ok1 {
			return a, b, false
		}
		if na.Lo == math.MaxInt64 {
			return a, b, false
		}
		nb, ok2 := intersect(b, Interval{na.Lo + 1, math.MaxInt64})
		return na, nb, ok2
	case isa.Le: // a <= b
		na, ok1 := intersect(a, Interval{math.MinInt64, b.Hi})
		if !ok1 {
			return a, b, false
		}
		nb, ok2 := intersect(b, Interval{na.Lo, math.MaxInt64})
		return na, nb, ok2
	case isa.Gt: // a > b
		nb, na, ok := refineCond(b, a, isa.Lt, true)
		return na, nb, ok
	case isa.Ge: // a >= b
		nb, na, ok := refineCond(b, a, isa.Le, true)
		return na, nb, ok
	}
	return a, b, true
}

// negateCond returns the complementary condition and whether one exists.
func negateCond(c isa.Cond) (isa.Cond, bool) {
	switch c {
	case isa.Eq:
		return isa.Ne, true
	case isa.Ne:
		return isa.Eq, true
	case isa.Lt:
		return isa.Ge, true
	case isa.Le:
		return isa.Gt, true
	case isa.Gt:
		return isa.Le, true
	case isa.Ge:
		return isa.Lt, true
	}
	return c, false
}

// condDecide evaluates "a cond b" over intervals: (true, true) if every
// concrete pair satisfies it, (false, true) if none does, ok=false if the
// intervals cannot decide.
func condDecide(a, b Interval, cond isa.Cond) (taken, ok bool) {
	switch cond {
	case isa.Eq:
		if a.IsPoint() && b.IsPoint() && a.Lo == b.Lo {
			return true, true
		}
		if a.Hi < b.Lo || b.Hi < a.Lo {
			return false, true
		}
	case isa.Ne:
		if a.IsPoint() && b.IsPoint() && a.Lo == b.Lo {
			return false, true
		}
		if a.Hi < b.Lo || b.Hi < a.Lo {
			return true, true
		}
	case isa.Lt:
		if a.Hi < b.Lo {
			return true, true
		}
		if a.Lo >= b.Hi {
			return false, true
		}
	case isa.Le:
		if a.Hi <= b.Lo {
			return true, true
		}
		if a.Lo > b.Hi {
			return false, true
		}
	case isa.Gt:
		if a.Lo > b.Hi {
			return true, true
		}
		if a.Hi <= b.Lo {
			return false, true
		}
	case isa.Ge:
		if a.Lo >= b.Hi {
			return true, true
		}
		if a.Hi < b.Lo {
			return false, true
		}
	}
	return false, false
}

// rangeProblem is the value-range analysis for one function.
type rangeProblem struct {
	g *cfg.Graph
	// boundary is the state arriving at the virtual Entry node: Top when
	// the function can be invoked by a call (direct or indirect), bottom
	// (unreached) otherwise.
	boundary RangeState
	// topEntry marks nodes control can reach without a CFG edge — indirect
	// jump targets, cross-function branch targets, fall-ins across a
	// function boundary. Their Init state is Top-reached.
	topEntry map[cfg.Node]bool
	// zeroEntry marks the node holding the program entry point: execution
	// starts there with every register zeroed.
	zeroEntry map[cfg.Node]bool
}

func (p *rangeProblem) Boundary(g *cfg.Graph) RangeState { return p.boundary }

func (p *rangeProblem) Init(g *cfg.Graph, n cfg.Node) RangeState {
	if p.topEntry[n] {
		return topRangeState()
	}
	if p.zeroEntry[n] {
		return zeroRangeState()
	}
	return RangeState{} // unreached bottom
}

func (p *rangeProblem) Transfer(g *cfg.Graph, n cfg.Node, in RangeState) RangeState {
	if !in.Reached || n == cfg.Entry || n == cfg.Exit {
		return in
	}
	b := g.Prog.Blocks[g.BlockOf[n]]
	out := in
	for pc := b.Start; pc < b.End; pc++ {
		rangeTransferInstr(&out, g.Prog.Instrs[pc])
	}
	return out
}

func (p *rangeProblem) Join(a, b RangeState) RangeState {
	if !a.Reached {
		return b
	}
	if !b.Reached {
		return a
	}
	out := a
	for i := range out.Reg {
		out.Reg[i] = hull(a.Reg[i], b.Reg[i])
	}
	return out
}

func (p *rangeProblem) Equal(a, b RangeState) bool { return a == b }

// Widen pins any endpoint that moved outward to infinity, and keeps an
// endpoint pinned once it is infinite, bounding the ascending chain at two
// steps per register. Taking next's finite bound under an already pinned
// one would unpin it, and the node would oscillate between the two until
// Solve's round limit.
func (p *rangeProblem) Widen(prev, next RangeState) RangeState {
	if !prev.Reached {
		return next
	}
	out := next
	for i := range out.Reg {
		if next.Reg[i].Lo < prev.Reg[i].Lo || prev.Reg[i].Lo == math.MinInt64 {
			out.Reg[i].Lo = math.MinInt64
		}
		if next.Reg[i].Hi > prev.Reg[i].Hi || prev.Reg[i].Hi == math.MaxInt64 {
			out.Reg[i].Hi = math.MaxInt64
		}
	}
	return out
}

// RefineEdge narrows branch operands along conditional edges. The refined
// register state is only applied when the taken and fall-through edges lead
// to different nodes; a two-way edge to one node joins both outcomes anyway.
func (p *rangeProblem) RefineEdge(g *cfg.Graph, from, to cfg.Node, out RangeState) RangeState {
	if !out.Reached || from == cfg.Entry || from == cfg.Exit {
		return out
	}
	b := g.Prog.Blocks[g.BlockOf[from]]
	if b.End <= b.Start {
		return out
	}
	term := g.Prog.Instrs[b.End-1]
	if term.Op != isa.Br && term.Op != isa.BrI {
		return out
	}
	takenNode, fallNode, ok := branchTargets(g, b.End-1, term)
	if !ok || takenNode == fallNode {
		return out
	}
	var truth bool
	switch to {
	case takenNode:
		truth = true
	case fallNode:
		truth = false
	default:
		return out
	}
	a := out.Reg[term.A]
	rhs := Point(term.Imm)
	if term.Op == isa.Br {
		rhs = out.Reg[term.B]
	}
	na, nb, feasible := refineCond(a, rhs, term.Cond, truth)
	if !feasible {
		return RangeState{} // dead edge
	}
	out.Reg[term.A] = na
	if term.Op == isa.Br {
		out.Reg[term.B] = nb
	}
	return out
}

// branchTargets resolves the CFG nodes for a conditional branch at pc:
// the taken-target node and the fall-through node. ok=false when either
// side leaves the function (routed to Exit by cfg.Build).
func branchTargets(g *cfg.Graph, pc int, term isa.Instr) (taken, fall cfg.Node, ok bool) {
	taken, ok1 := nodeAtAddr(g, int(term.Target))
	fall, ok2 := nodeAtAddr(g, pc+1)
	return taken, fall, ok1 && ok2
}

// nodeAtAddr maps a block-start address inside g's function to its node.
func nodeAtAddr(g *cfg.Graph, addr int) (cfg.Node, bool) {
	if addr < 0 || addr >= len(g.Prog.Instrs) {
		return 0, false
	}
	bi := g.Prog.BlockAt(addr)
	n, ok := g.NodeOf(bi)
	if !ok || g.Prog.Blocks[bi].Start != addr {
		return 0, false
	}
	return n, true
}
