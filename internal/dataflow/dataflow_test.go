package dataflow

import (
	"math"
	"testing"

	"netpath/internal/isa"
	"netpath/internal/prog"
)

// enumerate yields every concrete value of a small interval (the test
// intervals are all narrow).
func enumerate(iv Interval) []int64 {
	var out []int64
	for v := iv.Lo; ; v++ {
		out = append(out, v)
		if v == iv.Hi {
			break
		}
	}
	return out
}

// TestIntervalOpSoundness exhaustively checks, over a grid of small and
// edge-case intervals, that every concrete result of each arithmetic op is
// contained in the abstract result. This is the property everything above
// (guard elision, branch deciding) rests on.
func TestIntervalOpSoundness(t *testing.T) {
	ivs := []Interval{
		Point(0), Point(1), Point(-1), Point(63), Point(64), Point(-3),
		{-2, 3}, {0, 5}, {-5, -1}, {2, 4},
		Point(math.MinInt64), Point(math.MaxInt64),
		{math.MaxInt64 - 2, math.MaxInt64}, {math.MinInt64, math.MinInt64 + 2},
	}
	ops := []struct {
		name string
		abs  func(a, b Interval) Interval
		conc func(a, b int64) int64
	}{
		{"add", addIv, func(a, b int64) int64 { return a + b }},
		{"sub", subIv, func(a, b int64) int64 { return a - b }},
		{"mul", mulIv, func(a, b int64) int64 { return a * b }},
		{"div", divIv, func(a, b int64) int64 {
			if b == 0 {
				return 0
			}
			return a / b
		}},
		{"rem", remIv, func(a, b int64) int64 {
			if b == 0 {
				return 0
			}
			return a % b
		}},
		{"and", andIv, func(a, b int64) int64 { return a & b }},
		{"or", orIv, func(a, b int64) int64 { return a | b }},
		{"xor", xorIv, func(a, b int64) int64 { return a ^ b }},
		{"shl", shlIv, func(a, b int64) int64 { return a << (uint64(b) & 63) }},
		{"shr", shrIv, func(a, b int64) int64 { return a >> (uint64(b) & 63) }},
	}
	for _, op := range ops {
		for _, a := range ivs {
			for _, b := range ivs {
				abs := op.abs(a, b)
				for _, av := range enumerate(a) {
					for _, bv := range enumerate(b) {
						// Division by MinInt64/-1 wraps in Go; the concrete
						// model matches the VM, which computes it directly.
						got := op.conc(av, bv)
						if !abs.Contains(got) {
							t.Fatalf("%s: %v op %v = %v, but %d %s %d = %d outside",
								op.name, a, b, abs, av, op.name, bv, got)
						}
					}
				}
			}
		}
	}
}

// TestRefineCondSoundness checks that refining (a cond b) == truth never
// drops a concrete pair that satisfies the refined condition.
func TestRefineCondSoundness(t *testing.T) {
	ivs := []Interval{Point(0), Point(5), {-3, 4}, {2, 9}, {-6, -2}}
	conds := []isa.Cond{isa.Eq, isa.Ne, isa.Lt, isa.Le, isa.Gt, isa.Ge}
	for _, a := range ivs {
		for _, b := range ivs {
			for _, c := range conds {
				for _, truth := range []bool{true, false} {
					na, nb, ok := refineCond(a, b, c, truth)
					for _, av := range enumerate(a) {
						for _, bv := range enumerate(b) {
							if c.Eval(av, bv) != truth {
								continue
							}
							if !ok {
								t.Fatalf("refine(%v,%v,%v,%v) says infeasible but (%d,%d) satisfies it", a, b, c, truth, av, bv)
							}
							if !na.Contains(av) || !nb.Contains(bv) {
								t.Fatalf("refine(%v,%v,%v,%v)=(%v,%v) drops satisfying pair (%d,%d)", a, b, c, truth, na, nb, av, bv)
							}
						}
					}
				}
			}
		}
	}
}

// TestCondDecide checks decided comparisons agree with every concrete pair.
func TestCondDecide(t *testing.T) {
	ivs := []Interval{Point(0), Point(5), {-3, 4}, {2, 9}, {10, 12}}
	conds := []isa.Cond{isa.Eq, isa.Ne, isa.Lt, isa.Le, isa.Gt, isa.Ge}
	for _, a := range ivs {
		for _, b := range ivs {
			for _, c := range conds {
				taken, ok := condDecide(a, b, c)
				if !ok {
					continue
				}
				for _, av := range enumerate(a) {
					for _, bv := range enumerate(b) {
						if c.Eval(av, bv) != taken {
							t.Fatalf("condDecide(%v,%v,%v)=%v contradicted by (%d,%d)", a, b, c, taken, av, bv)
						}
					}
				}
			}
		}
	}
}

// freshProgram is the paper benchmarks' hot-loop idiom: advance a cursor,
// mask it into the data window, and load. The mask makes every load
// provably in-bounds — the flagship guard-elision target.
func freshProgram(t testing.TB) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("fresh")
	b.SetMemSize(1024)
	m := b.Func("main")
	m.MovI(1, 0)
	m.Label("loop")
	m.AddI(1, 1, 7)
	m.AndI(2, 1, 1023)
	m.Load(3, 2, 0)
	m.Op3(isa.Add, 4, 4, 3)
	m.BrI(isa.Lt, 1, 4096, "loop")
	m.Halt()
	return b.MustBuild()
}

func TestAnalyzeFreshPattern(t *testing.T) {
	p := freshProgram(t)
	f, err := Analyze(p)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	var loadPC int32 = -1
	for pc, in := range p.Instrs {
		if in.Op == isa.Load {
			loadPC = int32(pc)
		}
	}
	if loadPC < 0 {
		t.Fatal("no load in program")
	}
	if !f.InBounds(loadPC) {
		st, _ := f.EntryRange(int(loadPC))
		t.Fatalf("masked load at pc %d not proven in-bounds; base range %v", loadPC, st.Reg[p.Instrs[loadPC].B])
	}
	proven, total := f.InBoundsCount()
	if proven != 1 || total != 1 {
		t.Errorf("InBoundsCount = %d/%d, want 1/1", proven, total)
	}
}

// TestAnalyzeUnboundedLoadNotProven is the soundness side: without the mask
// the cursor's range widens past the window and the load must stay guarded.
func TestAnalyzeUnboundedLoadNotProven(t *testing.T) {
	b := prog.NewBuilder("unbounded")
	b.SetMemSize(1024)
	m := b.Func("main")
	m.MovI(1, 0)
	m.Label("loop")
	m.AddI(1, 1, 1)
	m.Load(3, 1, 0)
	m.BrI(isa.Lt, 1, 100, "loop")
	m.Halt()
	p := b.MustBuild()
	f, err := Analyze(p)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	for pc, in := range p.Instrs {
		if in.Op == isa.Load && f.InBounds(int32(pc)) {
			t.Fatalf("unbounded load at pc %d wrongly proven in-bounds", pc)
		}
	}
}

func TestAnalyzeDecidedBranch(t *testing.T) {
	b := prog.NewBuilder("decided")
	b.SetMemSize(4)
	m := b.Func("main")
	m.MovI(0, 5)
	m.BrI(isa.Lt, 0, 10, "low") // always taken: r0 == 5
	m.MovI(1, 99)
	m.Label("low")
	m.MovI(2, 1)
	m.Halt()
	p := b.MustBuild()
	f, err := Analyze(p)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	var brPC int32 = -1
	for pc, in := range p.Instrs {
		if in.Op == isa.BrI {
			brPC = int32(pc)
		}
	}
	if got := f.Branch(brPC); got != BranchAlwaysTaken {
		t.Fatalf("Branch(%d) = %v, want always-taken", brPC, got)
	}
}

// TestAnalyzeCalledFunctionTop: a called function's entry must assume
// arbitrary registers, so a load keyed on an incoming register cannot be
// proven — unless the callee masks it itself.
func TestAnalyzeCalledFunctionTop(t *testing.T) {
	b := prog.NewBuilder("called")
	b.SetMemSize(256)
	m := b.Func("main")
	m.MovI(0, 3)
	m.Call("raw")
	m.Call("masked")
	m.Halt()
	r := b.Func("raw")
	r.Load(1, 0, 0) // r0 is caller-controlled: must stay guarded
	r.Ret()
	k := b.Func("masked")
	k.AndI(2, 0, 255)
	k.Load(3, 2, 0) // masked in the callee: provable
	k.Ret()
	p := b.MustBuild()
	f, err := Analyze(p)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	for pc, in := range p.Instrs {
		if in.Op != isa.Load {
			continue
		}
		want := in.B == 2 // the masked load uses r2
		if got := f.InBounds(int32(pc)); got != want {
			t.Errorf("InBounds(load at pc %d, base r%d) = %v, want %v", pc, in.B, got, want)
		}
	}
}

// TestAnalyzeJmpIndPoisons: one indirect jump anywhere forces every block
// to admit arbitrary entry states.
func TestAnalyzeJmpIndPoisons(t *testing.T) {
	b := prog.NewBuilder("jmpind")
	b.SetMemSize(256)
	m := b.Func("main")
	m.MovI(0, 7)
	m.MovI(5, 3) // block start of "tail" — set up an indirect target
	m.JmpInd(5)
	m.Label("tail")
	m.Load(1, 0, 0) // r0 would be [7,7] without the JmpInd poisoning
	m.Halt()
	p := b.MustBuild()
	f, err := Analyze(p)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	for pc, in := range p.Instrs {
		if in.Op == isa.Load && f.InBounds(int32(pc)) {
			t.Fatalf("load at pc %d proven despite indirect-jump entry", pc)
		}
	}
}

func TestStackDepths(t *testing.T) {
	b := prog.NewBuilder("depths")
	b.SetMemSize(4)
	m := b.Func("main")
	m.Call("a")
	m.Halt()
	fa := b.Func("a")
	fa.Call("b")
	fa.Ret()
	fb := b.Func("b")
	fb.MovI(0, 1)
	fb.Ret()
	p := b.MustBuild()
	d := AnalyzeStackDepths(p)
	want := []FuncDepth{
		{Reached: true, Exact: true, Depth: 0},
		{Reached: true, Exact: true, Depth: 1},
		{Reached: true, Exact: true, Depth: 2},
	}
	if len(d) != len(want) {
		t.Fatalf("got %d depths, want %d", len(d), len(want))
	}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("func %d: %+v, want %+v", i, d[i], want[i])
		}
	}
}

func TestStackDepthVaries(t *testing.T) {
	b := prog.NewBuilder("varies")
	b.SetMemSize(4)
	m := b.Func("main")
	m.Call("a")
	m.Call("b") // b also called from a: depth 1 vs 2
	m.Halt()
	fa := b.Func("a")
	fa.Call("b")
	fa.Ret()
	fb := b.Func("b")
	fb.MovI(0, 1)
	fb.Ret()
	p := b.MustBuild()
	d := AnalyzeStackDepths(p)
	if d[2].Exact {
		t.Errorf("func b reachable at two depths but reported exact: %+v", d[2])
	}
	if d[2].String() != "varies" {
		t.Errorf("String() = %q, want varies", d[2].String())
	}
}

func TestLivenessLoop(t *testing.T) {
	p := freshProgram(t)
	f, err := Analyze(p)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	g := f.Graphs[0]
	sol := f.Live[0]
	// At the loop-head block the cursor r1 and accumulator r4 are live (both
	// are read before any redefinition on some path); the scratch r3 is not
	// (it is always rewritten by the load first).
	var loopNode = -1
	for n := 2; n < g.NumNodes(); n++ {
		bi := g.BlockOf[n]
		if bi >= 0 && p.Instrs[p.Blocks[bi].Start].Op == isa.AddI && p.Blocks[bi].Start > 0 {
			loopNode = n
			break
		}
	}
	if loopNode < 0 {
		t.Fatal("loop block not found")
	}
	// Backward solutions: In[n] is the block-exit state (joined from
	// successors), Out[n] the block-entry state after the transfer.
	entry := sol.Out[loopNode]
	if !entry.Live(1) || !entry.Live(4) {
		t.Errorf("r1/r4 should be live at loop head, state %b", entry)
	}
	if entry.Live(3) {
		t.Errorf("r3 dead at loop head (always overwritten), state %b", entry)
	}
}

func TestConstSolutionOnDecidedProgram(t *testing.T) {
	b := prog.NewBuilder("consts")
	b.SetMemSize(4)
	m := b.Func("main")
	m.MovI(0, 21)
	m.AddI(1, 0, 21)
	m.Halt()
	p := b.MustBuild()
	f, err := Analyze(p)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	g := f.Graphs[0]
	sol := f.Consts[0]
	n, ok := nodeAtAddr(g, 0)
	if !ok {
		t.Fatal("entry node not found")
	}
	out := sol.Out[n]
	if known := out.Known&(1<<1) != 0; !known || out.Val[1] != 42 {
		t.Fatalf("r1 should be known 42 at block exit, got known=%v val=%d", known, out.Val[1])
	}
}
