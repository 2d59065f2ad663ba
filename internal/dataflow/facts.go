package dataflow

import (
	"fmt"
	"sync/atomic"

	"netpath/internal/cfg"
	"netpath/internal/isa"
	"netpath/internal/prog"
)

// BranchKind is a statically decided branch outcome.
type BranchKind uint8

const (
	// BranchUnknown means the analysis cannot decide the branch.
	BranchUnknown BranchKind = iota
	// BranchAlwaysTaken means every execution reaching the branch takes it.
	BranchAlwaysTaken
	// BranchNeverTaken means every execution reaching the branch falls through.
	BranchNeverTaken
)

func (k BranchKind) String() string {
	switch k {
	case BranchAlwaysTaken:
		return "always-taken"
	case BranchNeverTaken:
		return "never-taken"
	default:
		return "unknown"
	}
}

// Facts is the distilled whole-program result of the range analysis:
// per-instruction conclusions the tooling reads, plus the raw per-function
// solutions for introspection.
type Facts struct {
	Prog   *prog.Program
	Graphs []*cfg.Graph

	// Ranges is indexed by function, like Graphs.
	Ranges []*Solution[RangeState]

	// inBounds[pc] is true when the Load/Store at pc provably addresses
	// inside [0, MemSize) on every execution that reaches it.
	inBounds []bool
	// branch[pc] is the decided outcome of the Br/BrI at pc.
	branch []BranchKind
}

// InBounds reports whether the memory access at pc is statically proven to
// stay inside guest memory. False for non-memory instructions.
func (f *Facts) InBounds(pc int32) bool {
	if int(pc) >= len(f.inBounds) || pc < 0 {
		return false
	}
	return f.inBounds[pc]
}

// Branch returns the decided outcome of the conditional branch at pc.
func (f *Facts) Branch(pc int32) BranchKind {
	if int(pc) >= len(f.branch) || pc < 0 {
		return BranchUnknown
	}
	return f.branch[pc]
}

// replay walks block b from its entry state st, calling visit with the
// register state on entry to each instruction. Instruction-granular
// states are recomputed this way rather than stored, at 520 bytes each.
func replay(p *prog.Program, b prog.Block, st RangeState, visit func(pc int, st *RangeState)) {
	for pc := b.Start; pc < b.End; pc++ {
		visit(pc, &st)
		rangeTransferInstr(&st, p.Instrs[pc])
	}
}

// InBoundsCount returns how many memory accesses were proven safe and the
// total number of memory accesses, for reporting.
func (f *Facts) InBoundsCount() (proven, total int) {
	for pc, in := range f.Prog.Instrs {
		if in.Op == isa.Load || in.Op == isa.Store {
			total++
			if f.inBounds[pc] {
				proven++
			}
		}
	}
	return proven, total
}

// DecidedBranchCount returns how many conditional branches were decided and
// the total number of conditional branches.
func (f *Facts) DecidedBranchCount() (decided, total int) {
	for pc, in := range f.Prog.Instrs {
		if in.Op.IsConditional() {
			total++
			if f.branch[pc] != BranchUnknown {
				decided++
			}
		}
	}
	return decided, total
}

// entryModel captures every way control can enter a block that the
// intraprocedural CFG has no edge for. Getting this set right is what
// makes the whole analysis sound: a missed entry means a block analyzed
// under too-strong assumptions, and every fact derived from it is unsound.
type entryModel struct {
	// topEntry[fi] marks nodes of function fi whose in-state must include
	// Top (all registers unknown).
	topEntry []map[cfg.Node]bool
	// zeroEntry[fi] marks the program-start node (registers all zero).
	zeroEntry []map[cfg.Node]bool
	// calledEntry[fi] is true when function fi's entry can be invoked by a
	// call (direct, or any indirect call exists).
	calledEntry []bool
}

// buildEntryModel derives the extra-entry sets for p. The cases:
//
//  1. Program start: p.Entry executes with all registers zero.
//  2. Called functions: a Call/CallInd transfers to f.Entry with arbitrary
//     registers (no calling convention). Any CallInd can target any
//     function entry.
//  3. Indirect jumps: a JmpInd may target any block start in the program
//     (the VM faults otherwise), so if the program contains one, every
//     block is a potential Top entry.
//  4. Cross-function direct branches: prog.Validate allows Jmp/Br/BrI to
//     target a block start in another function; cfg routes the edge to the
//     source function's Exit, so the target function sees nothing — mark
//     the target block Top.
//  5. Cross-function fall-ins: a Br/BrI fall-through or a Call
//     continuation at the last instruction of a function lands on the next
//     function's entry; cfg routes these to Exit too.
func buildEntryModel(p *prog.Program, graphs []*cfg.Graph) entryModel {
	m := entryModel{
		topEntry:    make([]map[cfg.Node]bool, len(p.Funcs)),
		zeroEntry:   make([]map[cfg.Node]bool, len(p.Funcs)),
		calledEntry: make([]bool, len(p.Funcs)),
	}
	for i := range m.topEntry {
		m.topEntry[i] = map[cfg.Node]bool{}
		m.zeroEntry[i] = map[cfg.Node]bool{}
	}

	markTop := func(addr int) {
		fi := p.FuncOf(addr)
		if fi < 0 {
			return
		}
		if n, ok := nodeAtAddr(graphs[fi], addr); ok {
			m.topEntry[fi][n] = true
		}
	}

	hasJmpInd := false
	hasCallInd := false
	for _, in := range p.Instrs {
		switch in.Op {
		case isa.JmpInd:
			hasJmpInd = true
		case isa.CallInd:
			hasCallInd = true
		}
	}

	// Case 1: program start.
	if fi := p.FuncOf(p.Entry); fi >= 0 {
		if n, ok := nodeAtAddr(graphs[fi], p.Entry); ok {
			m.zeroEntry[fi][n] = true
		}
	}

	// Case 2: call targets.
	if hasCallInd {
		for fi := range p.Funcs {
			m.calledEntry[fi] = true
		}
	}
	for _, in := range p.Instrs {
		if in.Op == isa.Call {
			if fi := p.FuncOf(int(in.Target)); fi >= 0 && p.Funcs[fi].Entry == int(in.Target) {
				m.calledEntry[fi] = true
			}
		}
	}

	// Case 3: indirect jumps poison every block.
	if hasJmpInd {
		for fi, g := range graphs {
			for n := 2; n < g.NumNodes(); n++ {
				m.topEntry[fi][cfg.Node(n)] = true
			}
		}
	}

	// Case 4: cross-function direct branch targets.
	for pc, in := range p.Instrs {
		switch in.Op {
		case isa.Jmp, isa.Br, isa.BrI:
			if p.FuncOf(pc) != p.FuncOf(int(in.Target)) {
				markTop(int(in.Target))
			}
		}
	}

	// Case 5: fall-ins across function boundaries. Blocks tile functions,
	// so the only fall-in point is the function's last instruction running
	// into the next function's entry.
	for fi, f := range p.Funcs {
		if f.End >= p.Len() || fi == len(p.Funcs)-1 {
			continue
		}
		last := p.Instrs[f.End-1]
		switch last.Op {
		case isa.Br, isa.BrI, isa.Call, isa.CallInd:
			// Fall-through / continuation lands at f.End, the next
			// function's entry.
			markTop(f.End)
		}
	}
	return m
}

// analyses counts Analyze calls, so a test can check that no run path
// analyzes a program.
var analyses atomic.Int64

// Analyze validates p, builds its CFGs, runs the range analysis to fixpoint
// and distills the per-instruction facts. The program must already be
// frozen (fingerprinted); Analyze does not mutate it. It is tooling: no
// run, compile or validation reads its result.
func Analyze(p *prog.Program) (*Facts, error) {
	analyses.Add(1)
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("dataflow: program invalid: %w", err)
	}
	graphs, err := cfg.BuildAll(p)
	if err != nil {
		return nil, fmt.Errorf("dataflow: cfg: %w", err)
	}

	em := buildEntryModel(p, graphs)

	f := &Facts{
		Prog:     p,
		Graphs:   graphs,
		Ranges:   make([]*Solution[RangeState], len(graphs)),
		inBounds: make([]bool, p.Len()),
		branch:   make([]BranchKind, p.Len()),
	}

	memSize := int64(p.MemSize)
	distill := func(pc int, st *RangeState) {
		switch in := p.Instrs[pc]; in.Op {
		case isa.Load, isa.Store:
			addr := addIv(st.Reg[in.B], Point(in.Imm))
			if !addr.IsFull() && addr.Within(0, memSize-1) {
				f.inBounds[pc] = true
			}
		case isa.Br:
			if taken, ok := condDecide(st.Reg[in.A], st.Reg[in.B], in.Cond); ok {
				f.branch[pc] = decidedKind(taken)
			}
		case isa.BrI:
			if taken, ok := condDecide(st.Reg[in.A], Point(in.Imm), in.Cond); ok {
				f.branch[pc] = decidedKind(taken)
			}
		}
	}
	for fi, g := range graphs {
		rp := &rangeProblem{g: g, topEntry: em.topEntry[fi], zeroEntry: em.zeroEntry[fi]}
		if em.calledEntry[fi] {
			rp.boundary = topRangeState()
		}
		f.Ranges[fi] = Solve[RangeState](g, rp)

		// Distill per-instruction facts by replaying the transfer function
		// through each reached block.
		for n := 2; n < g.NumNodes(); n++ {
			if st := f.Ranges[fi].In[n]; st.Reached {
				replay(p, p.Blocks[g.BlockOf[n]], st, distill)
			}
		}
	}
	return f, nil
}

func decidedKind(taken bool) BranchKind {
	if taken {
		return BranchAlwaysTaken
	}
	return BranchNeverTaken
}
