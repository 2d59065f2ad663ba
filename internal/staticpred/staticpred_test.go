package staticpred

import (
	"fmt"
	"math"
	"testing"

	"netpath/internal/isa"
	"netpath/internal/path"
	"netpath/internal/profile"
	"netpath/internal/prog"
	"netpath/internal/workload"
)

func analyze(t *testing.T, p *prog.Program) *Analysis {
	t.Helper()
	a, err := Analyze(p)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return a
}

// loopProg: a counted loop with a biased forward diamond inside, driven by
// data loads (the workload idiom), followed by a halt.
func loopProg(t *testing.T) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("loop")
	b.SetMemSize(64)
	for i := 0; i < 32; i++ {
		b.SetMem(i, int64(i*100)) // values 0..3100, uniform-ish
	}
	m := b.Func("main")
	m.MovI(0, 0)
	m.Label("top")
	m.Load(1, 2, 0)
	m.BrI(isa.Lt, 1, 3000, "hot") // nearly always true of the data
	m.AddI(3, 3, 1)               // cold arm
	m.Jmp("join")
	m.Label("hot")
	m.AddI(4, 4, 1)
	m.Label("join")
	m.AddI(0, 0, 1)
	m.BrI(isa.Lt, 0, 10, "top")
	m.Halt()
	return b.MustBuild()
}

func TestCombine(t *testing.T) {
	if got := combine(0.5, 0.7); math.Abs(got-0.7) > 1e-9 {
		t.Errorf("combine(0.5, x) = %v, want x", got)
	}
	if got := combine(0.7, 0.5); math.Abs(got-0.7) > 1e-9 {
		t.Errorf("combine(x, 0.5) = %v, want x", got)
	}
	if a, b := combine(0.6, 0.7), combine(0.7, 0.6); math.Abs(a-b) > 1e-9 {
		t.Error("combine must be symmetric")
	}
	if got := combine(0.8, 0.8); got <= 0.8 {
		t.Errorf("agreeing evidence must reinforce: combine(0.8,0.8)=%v", got)
	}
	if got := combine(0.9, 0.1); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("perfectly conflicting evidence must cancel: %v", got)
	}
}

func TestLoopBranchHeuristic(t *testing.T) {
	p := loopProg(t)
	a := analyze(t, p)
	// Find the backward latch (BrI targeting a lower address).
	latch := -1
	for pc, in := range p.Instrs {
		if in.Op == isa.BrI && int(in.Target) <= pc {
			latch = pc
		}
	}
	if latch < 0 {
		t.Fatal("no backward conditional found")
	}
	if got := a.TakenProb(latch); got != probLoopBack {
		t.Errorf("backward conditional TakenProb = %v, want %v", got, probLoopBack)
	}
}

func TestImmediateHeuristic(t *testing.T) {
	p := loopProg(t)
	a := analyze(t, p)
	// The forward diamond branch: Lt against 3000 where ~94% of the data is
	// below it. The static model must prefer taken, despite Lt's neutral
	// prior.
	fwd := -1
	for pc, in := range p.Instrs {
		if in.Op == isa.BrI && int(in.Target) > pc && in.Imm == 3000 {
			fwd = pc
		}
	}
	if fwd < 0 {
		t.Fatal("forward diamond branch not found")
	}
	if got := a.TakenProb(fwd); got <= 0.7 {
		t.Errorf("data-biased forward branch TakenProb = %v, want > 0.7", got)
	}
	// And the raw estimator endpoints.
	if pLow, ok := a.immProb(isa.Lt, -5); !ok || pLow != immClamp {
		t.Errorf("immProb(Lt, below-all) = %v,%v; want clamp %v", pLow, ok, immClamp)
	}
	if pHigh, ok := a.immProb(isa.Ge, -5); !ok || pHigh != 1-immClamp {
		t.Errorf("immProb(Ge, below-all) = %v,%v; want %v", pHigh, ok, 1-immClamp)
	}
}

func TestReturnHeuristic(t *testing.T) {
	// A forward branch whose taken side immediately returns; no data in the
	// program, so only opcode+return heuristics apply.
	b := prog.NewBuilder("ret-h")
	b.SetMemSize(4)
	m := b.Func("main")
	m.Call("f")
	m.Halt()
	f := b.Func("f")
	f.Op3(isa.Add, 1, 1, 2)
	f.Br(isa.Ge, 1, 2, "out") // Ge prior is 0.55 taken...
	f.AddI(3, 3, 1)
	f.Ret()
	f.Label("out")
	f.Ret()
	p := b.MustBuild()
	a := analyze(t, p)
	brPC := -1
	for pc, in := range p.Instrs {
		if in.Op == isa.Br {
			brPC = pc
		}
	}
	if brPC < 0 {
		t.Fatal("branch not found")
	}
	// ...but BOTH sides return here, so the return heuristic must stay out
	// of it: probability equals the bare prior.
	if got := a.TakenProb(brPC); got != condProb(isa.Ge) {
		t.Errorf("both-sides-return branch = %v, want bare prior %v", got, condProb(isa.Ge))
	}
}

func TestDecidedBranchIsCertain(t *testing.T) {
	// The range analysis proves both branches: r1 = 5 makes the first test
	// always true and the second always false. Certainties override every
	// heuristic, including the opcode prior.
	b := prog.NewBuilder("decided")
	b.SetMemSize(4)
	m := b.Func("main")
	m.MovI(1, 5)
	m.BrI(isa.Lt, 1, 10, "a")
	m.AddI(2, 2, 1)
	m.Label("a")
	m.BrI(isa.Gt, 1, 10, "b")
	m.AddI(3, 3, 1)
	m.Label("b")
	m.Halt()
	p := b.MustBuild()
	a := analyze(t, p)
	var always, never = -1, -1
	for pc, in := range p.Instrs {
		if in.Op == isa.BrI && in.Cond == isa.Lt {
			always = pc
		}
		if in.Op == isa.BrI && in.Cond == isa.Gt {
			never = pc
		}
	}
	if always < 0 || never < 0 {
		t.Fatal("branches not found")
	}
	if got := a.TakenProb(always); got != 1 {
		t.Errorf("always-taken branch TakenProb = %v, want 1", got)
	}
	if got := a.TakenProb(never); got != 0 {
		t.Errorf("never-taken branch TakenProb = %v, want 0", got)
	}
}

func TestWalkTerminatesBackward(t *testing.T) {
	p := loopProg(t)
	a := analyze(t, p)
	heads := Heads(p)
	// The loop head (the latch target) must be a static head.
	latchTarget := -1
	for pc, in := range p.Instrs {
		if in.Op == isa.BrI && int(in.Target) <= pc {
			latchTarget = int(in.Target)
		}
	}
	found := false
	for _, h := range heads {
		if h == latchTarget {
			found = true
		}
	}
	if !found {
		t.Fatalf("heads %v missing loop head %d", heads, latchTarget)
	}
	w := a.WalkFrom(latchTarget)
	if w.Aborted {
		t.Fatal("loop-head walk aborted")
	}
	last := w.Steps[len(w.Steps)-1]
	if !isa.IsBackward(last.PC, last.Next, true) {
		t.Errorf("walk must end on the backward latch, ended %+v", last)
	}
	if w.Confidence <= 0 || w.Confidence > 1 {
		t.Errorf("confidence %v out of range", w.Confidence)
	}
	if w.Key == "" {
		t.Error("completed walk must carry a signature key")
	}
}

func TestWalkAbortsOnIndirect(t *testing.T) {
	b := prog.NewBuilder("ind")
	b.SetMemSize(8)
	m := b.Func("main")
	m.Load(1, 0, 4)
	m.JmpInd(1)
	m.Label("a")
	m.Halt()
	b.SetMemLabel(4, "a")
	p := b.MustBuild()
	a := analyze(t, p)
	if w := a.WalkFrom(p.Entry); !w.Aborted {
		t.Errorf("walk through jmpind must abort, got %+v", w)
	}
}

func TestWalkCapsLikeTracker(t *testing.T) {
	// More forward branches than the tracker cap: the walk must stop at
	// maxWalk control events, like the online cap.
	b := prog.NewBuilder("cap")
	b.SetMemSize(4)
	m := b.Func("main")
	for i := 0; i < maxWalk+8; i++ {
		l := fmt.Sprintf("n%d", i)
		m.Br(isa.Ge, 1, 2, l)
		m.Label(l)
	}
	m.Halt()
	p := b.MustBuild()
	a := analyze(t, p)
	w := a.WalkFrom(p.Entry)
	if w.Aborted {
		t.Fatal("capped walk must complete, not abort")
	}
	controls := 0
	for _, s := range w.Steps {
		if p.Instrs[s.PC].Op.IsControl() {
			controls++
		}
	}
	if controls != maxWalk {
		t.Errorf("walk recorded %d control events, want cap %d", controls, maxWalk)
	}
}

func TestPredictorContract(t *testing.T) {
	bm, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	p, err := bm.Build(0.02)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := profile.Collect(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := Predict(pr)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Name() != "static" {
		t.Errorf("Name = %q", sp.Name())
	}
	if sp.CounterSpace() != 0 {
		t.Errorf("CounterSpace = %d, want 0 (the scheme's defining property)", sp.CounterSpace())
	}
	if sp.PredictedCount() == 0 {
		t.Fatal("static scheme predicted nothing on compress")
	}
	if len(sp.PrePredicted()) != sp.PredictedCount() {
		t.Errorf("PrePredicted len %d != count %d", len(sp.PrePredicted()), sp.PredictedCount())
	}
	for _, id := range sp.PrePredicted() {
		if !sp.IsPredicted(id) {
			t.Errorf("pre-predicted id %v not IsPredicted", id)
		}
	}
	// Observe never learns.
	if sp.Observe(sp.PrePredicted()[0]) {
		t.Error("Observe must never predict")
	}
	if sp.IsPredicted(path.None) {
		t.Error("None must not be predicted")
	}
	// On the loop-dominated compress, the static walks must capture real
	// hot flow: at least one predicted path is hot.
	hs := pr.Hot(0.001)
	hot := 0
	for _, id := range sp.PrePredicted() {
		if int(id) < len(hs.IsHot) && hs.IsHot[id] {
			hot++
		}
	}
	if hot == 0 {
		t.Errorf("no predicted path is hot (predicted %d, phantoms %d, aborts %d)",
			sp.PredictedCount(), sp.Phantoms, sp.Aborts)
	}
}

// TestLoopExitUsesInnermostLoop: a forward branch that leaves an inner loop
// but stays in the enclosing one is a loop exit. The heuristic must judge
// it against the innermost loop's body, in which only the fall-through
// stays; against the outer body both sides stay and it would not fire.
func TestLoopExitUsesInnermostLoop(t *testing.T) {
	b := prog.NewBuilder("nested")
	b.SetMemSize(4)
	m := b.Func("main")
	m.MovI(0, 0)
	m.Label("outer")
	m.MovI(1, 0)
	m.Label("inner")
	m.AddI(1, 1, 1)
	m.BrI(isa.Gt, 1, 50, "brk") // leaves the inner loop only
	m.BrI(isa.Lt, 1, 100, "inner")
	m.Label("brk")
	m.AddI(0, 0, 1)
	m.BrI(isa.Lt, 0, 10, "outer")
	m.Halt()
	p := b.MustBuild()
	a := analyze(t, p)
	pc := -1
	for i, in := range p.Instrs {
		if in.Op == isa.BrI && in.Cond == isa.Gt {
			pc = i
		}
	}
	want := combine(condProb(isa.Gt), 1-probStayInLoop)
	if got := a.TakenProb(pc); math.Abs(got-want) > 1e-12 {
		t.Errorf("TakenProb of the inner-loop exit = %v, want %v (the loop-exit heuristic against the inner loop)", got, want)
	}
}
