package dataflow

import (
	"fmt"
	"io"

	"netpath/internal/cfg"
	"netpath/internal/isa"
)

// WriteDOT renders one function's CFG in Graphviz DOT form with the range
// analysis woven in: each block header shows the non-trivial register
// intervals flowing into it, each memory access is tagged with its proven
// address interval (and whether the bounds check is elidable), and each
// statically decided branch carries its verdict. It is the introspection
// companion to cfg.WriteDOT — same node/edge order, so diffs line up.
func WriteDOT(w io.Writer, f *Facts, fi int) error {
	if fi < 0 || fi >= len(f.Graphs) {
		return fmt.Errorf("dataflow: no function %d", fi)
	}
	g := f.Graphs[fi]
	p := f.Prog
	fn := p.Funcs[fi]
	if _, err := fmt.Fprintf(w, "digraph %q {\n", fn.Name); err != nil {
		return err
	}
	proven, total := 0, 0
	for pc := fn.Entry; pc < fn.End; pc++ {
		op := p.Instrs[pc].Op
		if op == isa.Load || op == isa.Store {
			total++
			if f.InBounds(int32(pc)) {
				proven++
			}
		}
	}
	fmt.Fprintf(w, "  label=%q;\n",
		fmt.Sprintf("%s [%d,%d)  bounds %d/%d proven",
			fn.Name, fn.Entry, fn.End, proven, total))
	fmt.Fprintf(w, "  node [shape=box, fontname=\"monospace\"];\n")

	back := map[cfg.Edge]bool{}
	for _, e := range g.BackEdges() {
		back[e] = true
	}

	for node := 0; node < g.NumNodes(); node++ {
		switch cfg.Node(node) {
		case cfg.Entry:
			fmt.Fprintf(w, "  n0 [label=\"entry\", shape=circle];\n")
		case cfg.Exit:
			fmt.Fprintf(w, "  n1 [label=\"exit\", shape=doublecircle];\n")
		default:
			b := p.Blocks[g.BlockOf[node]]
			st := f.Ranges[fi].In[node]
			label := fmt.Sprintf("[%d,%d)%s", b.Start, b.End, entrySummary(st))
			replay(p, b, st, func(a int, st *RangeState) {
				label += fmt.Sprintf("\\l%3d: %s%s", a, p.Instrs[a], instrFact(f, a, st))
			})
			label += "\\l"
			attrs := ""
			if !g.Reachable(cfg.Node(node)) {
				attrs = ", style=dotted"
			}
			fmt.Fprintf(w, "  n%d [label=\"%s\"%s];\n", node, label, attrs)
		}
	}

	for _, e := range g.Edges() {
		var attrs []byte
		if back[e] {
			attrs = append(attrs, ` style=dashed`...)
		}
		if len(attrs) > 0 {
			fmt.Fprintf(w, "  n%d -> n%d [%s];\n", e.From, e.To, attrs[1:])
		} else {
			fmt.Fprintf(w, "  n%d -> n%d;\n", e.From, e.To)
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

// entrySummary renders the registers with non-trivial intervals in a
// block's entry state st, or a reachability note. Registers at ⊤ are
// omitted — on most blocks that is nearly all of them — and the list is
// capped at eight so the program-start block (all 32 registers at {0})
// stays readable.
func entrySummary(st RangeState) string {
	if !st.Reached {
		return "  unreached"
	}
	s, shown, known := "", 0, 0
	for r, iv := range st.Reg {
		if iv.IsFull() {
			continue
		}
		known++
		if shown == 8 {
			continue
		}
		shown++
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("r%d=%s", r, iv)
	}
	if known > shown {
		s += fmt.Sprintf(" +%d more", known-shown)
	}
	if s == "" {
		return ""
	}
	return "  " + s
}

// instrFact renders the distilled per-instruction annotation, given the
// range state st on entry to pc: the address interval and bounds verdict
// for memory accesses, the decided outcome for conditional branches.
func instrFact(f *Facts, pc int, st *RangeState) string {
	in := f.Prog.Instrs[pc]
	switch in.Op {
	case isa.Load, isa.Store:
		if !st.Reached {
			return ""
		}
		addr := addIv(st.Reg[in.B], Point(in.Imm))
		if f.InBounds(int32(pc)) {
			return fmt.Sprintf("  ; addr %s in-bounds", addr)
		}
		return fmt.Sprintf("  ; addr %s", addr)
	case isa.Br, isa.BrI:
		if k := f.Branch(int32(pc)); k != BranchUnknown {
			return fmt.Sprintf("  ; %s", k)
		}
	}
	return ""
}
