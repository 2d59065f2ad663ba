package cfg

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"netpath/internal/isa"
	"netpath/internal/prog"
	"netpath/internal/randprog"
	"netpath/internal/workload"
)

// The queries below are the graph analyses the O(1) numbering replaced,
// kept as the reference: Reachable scanned the RPO, Dominates walked the
// idom chain, Edges sorted the whole edge list, and NaturalLoops merged
// bodies in maps. The differential tests require the graph's answers to
// equal theirs exactly.

func reachableRef(g *Graph, u Node) bool {
	for _, v := range g.RPO() {
		if v == u {
			return true
		}
	}
	return false
}

func dominatesRef(g *Graph, a, b Node) bool {
	if g.Idom(b) < 0 {
		return false
	}
	for {
		if a == b {
			return true
		}
		if b == Entry {
			return false
		}
		b = g.Idom(b)
		if b < 0 {
			return false
		}
	}
}

func edgesRef(g *Graph) []Edge {
	var es []Edge
	for from, succs := range g.Succs {
		for _, to := range succs {
			es = append(es, Edge{Node(from), to})
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].From != es[j].From {
			return es[i].From < es[j].From
		}
		return es[i].To < es[j].To
	})
	return es
}

func backEdgesRef(g *Graph) []Edge {
	var out []Edge
	for _, e := range edgesRef(g) {
		if reachableRef(g, e.From) && dominatesRef(g, e.To, e.From) {
			out = append(out, e)
		}
	}
	return out
}

func naturalLoopsRef(g *Graph) []Loop {
	byHead := map[Node]map[Node]bool{}
	for _, e := range backEdgesRef(g) {
		body := byHead[e.To]
		if body == nil {
			body = map[Node]bool{e.To: true}
			byHead[e.To] = body
		}
		stack := []Node{e.From}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if body[u] {
				continue
			}
			body[u] = true
			stack = append(stack, g.Preds[u]...)
		}
	}
	heads := make([]Node, 0, len(byHead))
	for h := range byHead {
		heads = append(heads, h)
	}
	sort.Slice(heads, func(i, j int) bool { return heads[i] < heads[j] })
	loops := make([]Loop, 0, len(heads))
	for _, h := range heads {
		var body []Node
		for u := range byHead[h] {
			body = append(body, u)
		}
		sort.Slice(body, func(i, j int) bool { return body[i] < body[j] })
		loops = append(loops, Loop{Head: h, Body: body})
	}
	return loops
}

// verifyFuncRef is verifyFunc as it stood on the reference queries, with
// loop bodies held in maps.
func verifyFuncRef(p *prog.Program, fi int, g *Graph, r *Report, callTargets map[int]bool, hasCallInd bool) {
	f := p.Funcs[fi]
	add := func(class Class, sev Severity, addr int, format string, args ...any) {
		r.Issues = append(r.Issues, Issue{
			Class: class, Severity: sev, Addr: addr, Func: f.Name,
			Msg: fmt.Sprintf(format, args...),
		})
	}

	for addr := f.Entry; addr < f.End; addr++ {
		in := p.Instrs[addr]
		switch in.Op {
		case isa.Jmp, isa.Br, isa.BrI:
			t := int(in.Target)
			if t < f.Entry || t >= f.End {
				add(ClassCrossFunction, SeverityError, addr,
					"%v targets @%d outside its function [%d,%d); only call/ret may cross functions",
					in.Op, t, f.Entry, f.End)
			}
		case isa.Call, isa.CallInd:
			// The continuation after the callee returns is addr+1; if the
			// call ends the program's last block there is nowhere to return
			// to — a guaranteed bad-PC fault on the way back. A continuation
			// that lands in a *different* function is runnable but almost
			// certainly a layout mistake, so it only warns.
			if addr+1 >= p.Len() {
				add(ClassFallthroughEnd, SeverityError, addr,
					"%v at the program's last instruction: the return continuation falls off the end",
					in.Op)
			} else if addr+1 >= f.End {
				add(ClassFallthroughEnd, SeverityWarning, addr,
					"%v at the last instruction of %q: the return continuation falls into the next function",
					in.Op, f.Name)
			}
		}
	}

	// Return underflow: a ret executed with an empty call stack faults. The
	// only function statically known to run with an empty stack is the entry
	// function of a program that never calls it (and has no indirect calls,
	// which could target anything).
	entryFunc := p.FuncOf(p.Entry)
	if fi == entryFunc && !hasCallInd && !callTargets[f.Entry] {
		for node := 2; node < g.NumNodes(); node++ {
			bi := g.BlockOf[node]
			b := p.Blocks[bi]
			if p.Instrs[b.End-1].Op == isa.Ret && reachableRef(g, Node(node)) {
				add(ClassReturnUnderflow, SeverityError, b.End-1,
					"reachable ret in entry function %q, which always runs with an empty call stack", f.Name)
			}
		}
	}

	// The remaining analyses trust the static successor sets, which are
	// incomplete when the function contains indirect jumps (no successors
	// are recorded for them): a block fed only by a jump table looks
	// unreachable, and a loop escaped through one looks closed.
	if g.HasIndirect {
		return
	}

	for node := 2; node < g.NumNodes(); node++ {
		if !reachableRef(g, Node(node)) {
			b := p.Blocks[g.BlockOf[node]]
			add(ClassUnreachable, SeverityWarning, b.Start,
				"block [%d,%d) is unreachable from the function entry", b.Start, b.End)
		}
	}

	// Obviously-infinite counterless loops: a natural loop no edge leaves
	// and no call or halt interrupts. (ret and halt terminators edge to
	// Exit, which is outside every loop body, so they register as exits.)
	for _, l := range naturalLoopsRef(g) {
		inBody := map[Node]bool{}
		for _, u := range l.Body {
			inBody[u] = true
		}
		escapes := false
		for _, u := range l.Body {
			for _, v := range g.Succs[u] {
				if !inBody[v] {
					escapes = true
				}
			}
			if term := p.Instrs[p.Blocks[g.BlockOf[u]].End-1]; term.Op == isa.Call || term.Op == isa.CallInd {
				// A called function may halt or diverge on its own; the loop
				// is not *obviously* infinite.
				escapes = true
			}
		}
		if !escapes {
			head := p.Blocks[g.BlockOf[l.Head]]
			add(ClassInfiniteLoop, SeverityError, head.Start,
				"loop headed at @%d has no exit edge and no call/halt in its body: once entered it never terminates", head.Start)
		}
	}

	// A function other code calls but that can never return starves every
	// caller; suspicious, though legitimate for a callee that halts.
	if callTargets[f.Entry] {
		returns := false
		for node := 2; node < g.NumNodes(); node++ {
			if !reachableRef(g, Node(node)) {
				continue
			}
			switch p.Instrs[p.Blocks[g.BlockOf[node]].End-1].Op {
			case isa.Ret, isa.Halt:
				returns = true
			}
		}
		if !returns {
			add(ClassNoReturn, SeverityWarning, f.Entry,
				"function %q is called but has no reachable ret or halt", f.Name)
		}
	}
}

// checkGraphMatchesRef compares g's queries with the references. Reachable
// is checked for every node, Dominates for every pair when all is set and
// for both directions of every edge otherwise; Edges, BackEdges and
// NaturalLoops must be deeply equal.
func checkGraphMatchesRef(t *testing.T, what string, g *Graph, all bool) {
	t.Helper()
	n := Node(g.NumNodes())
	for u := Node(0); u < n; u++ {
		if got, want := g.Reachable(u), reachableRef(g, u); got != want {
			t.Fatalf("%s: Reachable(%d) = %v, reference %v", what, u, got, want)
		}
	}
	dom := func(a, b Node) {
		if got, want := g.Dominates(a, b), dominatesRef(g, a, b); got != want {
			t.Fatalf("%s: Dominates(%d,%d) = %v, reference %v", what, a, b, got, want)
		}
	}
	if all {
		for a := Node(0); a < n; a++ {
			for b := Node(0); b < n; b++ {
				dom(a, b)
			}
		}
	} else {
		for _, e := range g.Edges() {
			dom(e.From, e.To)
			dom(e.To, e.From)
		}
	}
	if got, want := g.Edges(), edgesRef(g); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Edges differ from the reference:\n got %v\nwant %v", what, got, want)
	}
	if got, want := g.BackEdges(), backEdgesRef(g); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: BackEdges differ from the reference:\n got %v\nwant %v", what, got, want)
	}
	if got, want := g.NaturalLoops(), naturalLoopsRef(g); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: NaturalLoops differ from the reference:\n got %v\nwant %v", what, got, want)
	}
}

// checkVerifyMatchesRef requires Verify's whole report, and so the
// *VerifyError the load gate returns, to equal the reference verifier's.
func checkVerifyMatchesRef(t *testing.T, p *prog.Program) {
	t.Helper()
	got, want := Verify(p), verify(p, verifyFuncRef)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Verify differs from the reference:\n got %s\nwant %s", p.Name, got, want)
	}
	if !reflect.DeepEqual(got.Err(), want.Err()) {
		t.Fatalf("%s: verdict %v, reference %v", p.Name, got.Err(), want.Err())
	}
}

// closeLoops turns every backward conditional branch into a jump to the
// same target, so the loops it latched lose their exit: a variant of p that
// the verifier rejects (infinite loops) and warns about (dead fall-through
// blocks), exercising the error paths of the differential.
func closeLoops(p *prog.Program) *prog.Program {
	q := *p
	q.Name = p.Name + "-closed"
	q.Instrs = append([]isa.Instr(nil), p.Instrs...)
	for pc, in := range q.Instrs {
		if (in.Op == isa.Br || in.Op == isa.BrI) && int(in.Target) <= pc {
			q.Instrs[pc] = isa.Instr{Op: isa.Jmp, Target: in.Target}
		}
	}
	q.Freeze()
	return &q
}

// TestGraphMatchesReference is the O(1) dominance numbering's differential:
// every node pair of randprog 1–200 and every edge query of the nine
// benchmarks answer as the RPO scan and idom walk did, the loop analyses
// are deeply equal, and Verify reports exactly what the reference verifier
// reports, on the clean programs and on loop-closed variants that fail.
func TestGraphMatchesReference(t *testing.T) {
	rejected := 0
	check := func(p *prog.Program, all bool) {
		for _, q := range []*prog.Program{p, closeLoops(p)} {
			for fi := range q.Funcs {
				g, err := Build(q, fi)
				if err != nil {
					t.Fatalf("%s: %v", q.Name, err)
				}
				checkGraphMatchesRef(t, q.Name+"/"+q.Funcs[fi].Name, g, all)
			}
			checkVerifyMatchesRef(t, q)
			if VerifyProgram(q) != nil {
				rejected++
			}
		}
	}
	for seed := int64(1); seed <= 200; seed++ {
		check(randprog.MustGenerate(seed, randprog.Options{}), true)
	}
	for _, b := range workload.All() {
		p, err := b.Build(0.02)
		if err != nil {
			t.Fatal(err)
		}
		check(p, false)
	}
	if rejected == 0 {
		t.Fatal("no program in the corpus failed verification; the error paths went unchecked")
	}
}
