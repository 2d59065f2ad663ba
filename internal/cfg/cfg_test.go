package cfg

import (
	"testing"

	"netpath/internal/isa"
	"netpath/internal/prog"
)

// diamondLoop builds:
//
//	main:  r0 = 0
//	loop:  if r0 % 2 == 0 goto even
//	       (odd)  r1++
//	       goto join
//	even:  r2++
//	join:  r0++
//	       if r0 < 10 goto loop
//	       halt
func diamondLoop(t *testing.T) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("diamond")
	b.SetMemSize(4)
	m := b.Func("main")
	m.MovI(0, 0)
	m.Label("loop")
	m.RemI(3, 0, 2)
	m.BrI(isa.Eq, 3, 0, "even")
	m.AddI(1, 1, 1)
	m.Jmp("join")
	m.Label("even")
	m.AddI(2, 2, 1)
	m.Label("join")
	m.AddI(0, 0, 1)
	m.BrI(isa.Lt, 0, 10, "loop")
	m.Halt()
	return b.MustBuild()
}

func TestBuildDiamond(t *testing.T) {
	p := diamondLoop(t)
	g, err := Build(p, 0)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if g.HasIndirect {
		t.Error("no indirect jumps in this function")
	}
	// Entry has exactly one successor: the entry block.
	if len(g.Succs[Entry]) != 1 {
		t.Fatalf("entry succs = %v", g.Succs[Entry])
	}
	// Exit has no successors, at least one predecessor.
	if len(g.Succs[Exit]) != 0 || len(g.Preds[Exit]) == 0 {
		t.Error("exit wiring wrong")
	}
	// Every reachable non-exit node has successors.
	for _, u := range g.RPO() {
		if u != Exit && len(g.Succs[u]) == 0 {
			t.Errorf("reachable node %d has no successors", u)
		}
	}
}

func TestPredsMatchSuccs(t *testing.T) {
	p := diamondLoop(t)
	g, _ := Build(p, 0)
	fwd := map[Edge]int{}
	for u, ss := range g.Succs {
		for _, v := range ss {
			fwd[Edge{Node(u), v}]++
		}
	}
	bwd := map[Edge]int{}
	for v, ps := range g.Preds {
		for _, u := range ps {
			bwd[Edge{u, Node(v)}]++
		}
	}
	if len(fwd) != len(bwd) {
		t.Fatalf("succ/pred edge sets differ: %d vs %d", len(fwd), len(bwd))
	}
	for e, c := range fwd {
		if bwd[e] != c {
			t.Errorf("edge %v count %d vs %d", e, c, bwd[e])
		}
	}
}

func TestRPOStartsAtEntry(t *testing.T) {
	p := diamondLoop(t)
	g, _ := Build(p, 0)
	rpo := g.RPO()
	if len(rpo) == 0 || rpo[0] != Entry {
		t.Fatalf("RPO = %v, must start with Entry", rpo)
	}
	seen := map[Node]bool{}
	for _, u := range rpo {
		if seen[u] {
			t.Fatalf("node %d twice in RPO", u)
		}
		seen[u] = true
	}
}

func TestDominators(t *testing.T) {
	p := diamondLoop(t)
	g, _ := Build(p, 0)
	// Entry dominates everything reachable.
	for _, u := range g.RPO() {
		if !g.Dominates(Entry, u) {
			t.Errorf("Entry must dominate %d", u)
		}
	}
	// The loop head dominates the join block; the two arms do not dominate
	// each other. Identify them structurally: the head is the back-edge
	// target.
	bes := g.BackEdges()
	if len(bes) != 1 {
		t.Fatalf("back edges = %v, want 1", bes)
	}
	head, tail := bes[0].To, bes[0].From
	if !g.Dominates(head, tail) {
		t.Error("loop head must dominate the back-edge source")
	}
	if g.Dominates(tail, head) {
		t.Error("back-edge source must not dominate the head")
	}
	if g.Idom(Entry) != Entry {
		t.Error("Idom(Entry) must be Entry")
	}
}

func TestNaturalLoops(t *testing.T) {
	p := diamondLoop(t)
	g, _ := Build(p, 0)
	loops := g.NaturalLoops()
	if len(loops) != 1 {
		t.Fatalf("loops = %+v, want 1", loops)
	}
	l := loops[0]
	// The loop body must contain the head and both diamond arms: at least 4
	// blocks (head, then-arm, else-arm, join/latch).
	if len(l.Body) < 4 {
		t.Errorf("loop body = %v, want >= 4 nodes", l.Body)
	}
	inBody := map[Node]bool{}
	for _, u := range l.Body {
		inBody[u] = true
	}
	if !inBody[l.Head] {
		t.Error("head not in body")
	}
	if inBody[Entry] || inBody[Exit] {
		t.Error("Entry/Exit must not be in the loop body")
	}
}

func TestNestedLoops(t *testing.T) {
	b := prog.NewBuilder("nested")
	b.SetMemSize(4)
	m := b.Func("main")
	m.MovI(0, 0)
	m.Label("outer")
	m.MovI(1, 0)
	m.Label("inner")
	m.AddI(1, 1, 1)
	m.BrI(isa.Lt, 1, 3, "inner")
	m.AddI(0, 0, 1)
	m.BrI(isa.Lt, 0, 3, "outer")
	m.Halt()
	p := b.MustBuild()
	g, err := Build(p, 0)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	loops := g.NaturalLoops()
	if len(loops) != 2 {
		t.Fatalf("loops = %d, want 2", len(loops))
	}
	// One body must strictly contain the other.
	a, c := loops[0], loops[1]
	if len(a.Body) == len(c.Body) {
		t.Fatal("nested loops must have different body sizes")
	}
	inner, outer := a, c
	if len(inner.Body) > len(outer.Body) {
		inner, outer = outer, inner
	}
	outerSet := map[Node]bool{}
	for _, u := range outer.Body {
		outerSet[u] = true
	}
	for _, u := range inner.Body {
		if !outerSet[u] {
			t.Errorf("inner node %d not in outer body", u)
		}
	}
}

func TestIndirectFlagged(t *testing.T) {
	b := prog.NewBuilder("ind")
	b.SetMemSize(8)
	m := b.Func("main")
	m.Load(1, 0, 4)
	m.JmpInd(1)
	m.Label("a")
	m.Halt()
	b.SetMemLabel(4, "a")
	p := b.MustBuild()
	g, err := Build(p, 0)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if !g.HasIndirect {
		t.Error("HasIndirect must be set")
	}
}

func TestCallEdgesToContinuation(t *testing.T) {
	b := prog.NewBuilder("call")
	b.SetMemSize(4)
	m := b.Func("main")
	m.Call("f")
	m.MovI(0, 1)
	m.Halt()
	f := b.Func("f")
	f.Ret()
	p := b.MustBuild()
	g, err := Build(p, 0)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// The call block's successor is the continuation block, not Exit.
	callNode := Node(-1)
	for bi, blk := range p.Blocks {
		if blk.Func == 0 && p.Instrs[blk.End-1].Op == isa.Call {
			callNode, _ = g.NodeOf(bi)
		}
	}
	if callNode < 0 {
		t.Fatal("call block not found")
	}
	if len(g.Succs[callNode]) != 1 || g.Succs[callNode][0] == Exit {
		t.Errorf("call successors = %v, want the continuation block", g.Succs[callNode])
	}
	// The callee's own graph: its block edges to Exit via Ret.
	gf, err := Build(p, 1)
	if err != nil {
		t.Fatalf("Build(f): %v", err)
	}
	if len(gf.Preds[Exit]) == 0 {
		t.Error("callee Ret must edge to Exit")
	}
}

func TestBuildAll(t *testing.T) {
	p := diamondLoop(t)
	gs, err := BuildAll(p)
	if err != nil {
		t.Fatalf("BuildAll: %v", err)
	}
	if len(gs) != len(p.Funcs) {
		t.Errorf("graphs = %d, want %d", len(gs), len(p.Funcs))
	}
	if _, err := Build(p, 99); err == nil {
		t.Error("want error for bad function index")
	}
}

func TestEdgesDeterministic(t *testing.T) {
	p := diamondLoop(t)
	g, _ := Build(p, 0)
	e1 := g.Edges()
	e2 := g.Edges()
	if len(e1) != len(e2) {
		t.Fatal("edge count unstable")
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatal("edge order unstable")
		}
	}
}
