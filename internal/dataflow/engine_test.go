package dataflow

import (
	"fmt"
	"reflect"
	"testing"

	"netpath/internal/cfg"
	"netpath/internal/prog"
	"netpath/internal/randprog"
	"netpath/internal/workload"
)

// solveReference is Solve without the stale-input skip: every round
// re-joins every node. Solve must produce exactly its solution.
func solveReference[S any](g *cfg.Graph, p Problem[S]) *Solution[S] {
	n := g.NumNodes()
	sol := &Solution[S]{In: make([]S, n), Out: make([]S, n)}
	order := visitOrder(g, p.Direction())
	refiner, hasRefine := p.(EdgeRefiner[S])
	widener, hasWiden := p.(Widener[S])
	flows := g.Preds
	boundaryNode := cfg.Entry
	if p.Direction() == Backward {
		flows = g.Succs
		boundaryNode = cfg.Exit
	}
	visits := make([]int, n)
	for _, node := range order {
		sol.In[node] = p.Init(g, node)
		sol.Out[node] = p.Transfer(g, node, sol.In[node])
	}
	sol.In[boundaryNode] = p.Boundary(g)
	sol.Out[boundaryNode] = p.Transfer(g, boundaryNode, sol.In[boundaryNode])
	for {
		sol.Rounds++
		changed := false
		for _, node := range order {
			var in S
			if node == boundaryNode {
				in = p.Boundary(g)
			} else {
				in = p.Init(g, node)
			}
			for _, pred := range flows[node] {
				out := sol.Out[pred]
				if hasRefine {
					if p.Direction() == Forward {
						out = refiner.RefineEdge(g, pred, node, out)
					} else {
						out = refiner.RefineEdge(g, node, pred, out)
					}
				}
				in = p.Join(in, out)
			}
			if p.Equal(in, sol.In[node]) {
				continue
			}
			visits[node]++
			if hasWiden && visits[node] > widenAfter {
				in = widener.Widen(sol.In[node], in)
				if p.Equal(in, sol.In[node]) {
					continue
				}
			}
			sol.In[node] = in
			sol.Out[node] = p.Transfer(g, node, in)
			changed = true
		}
		if !changed || sol.Rounds > 4*n+64 {
			return sol
		}
	}
}

func sameSolution[S any](t *testing.T, what string, g *cfg.Graph, p Problem[S]) {
	t.Helper()
	got, want := Solve(g, p), solveReference(g, p)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: Solve (%d rounds) differs from the reference loop (%d rounds)", what, got.Rounds, want.Rounds)
	}
}

// checkSolveMatchesReference runs every lattice Analyze runs, under
// Analyze's entry model, through both loops.
func checkSolveMatchesReference(t *testing.T, name string, p *prog.Program) {
	t.Helper()
	graphs, err := cfg.BuildAll(p)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	em := buildEntryModel(p, graphs)
	for fi, g := range graphs {
		rp := &rangeProblem{g: g, topEntry: em.topEntry[fi], zeroEntry: em.zeroEntry[fi]}
		cp := &constProblem{g: g, topEntry: em.topEntry[fi], zeroEntry: em.zeroEntry[fi]}
		if em.calledEntry[fi] {
			rp.boundary = topRangeState()
			cp.boundary = topConstState()
		}
		what := name + "/" + p.Funcs[fi].Name
		sameSolution[RangeState](t, what+" ranges", g, rp)
		sameSolution[ConstState](t, what+" consts", g, cp)
		sameSolution[LiveState](t, what+" liveness", g, &liveProblem{g: g})
	}
}

// TestSolveMatchesReference pins the dirty-set worklist as exact: Solve and
// the reference loop agree on In, Out and Rounds for every function of the
// nine benchmarks and of random programs. Every range problem here
// converges (TestRangeAnalysisReachesPostFixpoint), but the reference
// re-joins every node every round, and gcc's driver legitimately takes
// 4,946 rounds over 12,537 nodes: about 30 s, and about 2 minutes under
// -race. So -short leaves gcc out.
func TestSolveMatchesReference(t *testing.T) {
	for _, b := range workload.All() {
		if testing.Short() && b.Name == "gcc" {
			continue
		}
		p, err := b.Build(0.02)
		if err != nil {
			t.Fatal(err)
		}
		checkSolveMatchesReference(t, b.Name, p)
	}
	for seed := int64(1); seed <= 200; seed++ {
		checkSolveMatchesReference(t, "randprog", randprog.MustGenerate(seed, randprog.Options{}))
	}
}

// checkRangePostFixpoint requires Analyze's range solution for every
// function of p to be a post-fixpoint reached inside the round limit: at
// every node, the join of its entry state and its predecessors' refined
// Out lies inside In. A solution the round limit cut short fails this, and
// with it the soundness of every InBounds and Branch fact read from it.
// Constants and liveness must converge inside the limit too.
func checkRangePostFixpoint(t *testing.T, name string, p *prog.Program) {
	t.Helper()
	f, err := Analyze(p)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	em := buildEntryModel(p, f.Graphs)
	for fi, g := range f.Graphs {
		what := name + "/" + p.Funcs[fi].Name
		limit := 4*g.NumNodes() + 64
		sol := f.Ranges[fi]
		for i, rounds := range []int{sol.Rounds, f.Consts[fi].Rounds, f.Live[fi].Rounds} {
			if rounds > limit {
				t.Errorf("%s: %s took %d rounds, past the limit %d", what, []string{"ranges", "consts", "liveness"}[i], rounds, limit)
			}
		}
		rp := &rangeProblem{g: g, topEntry: em.topEntry[fi], zeroEntry: em.zeroEntry[fi]}
		if em.calledEntry[fi] {
			rp.boundary = topRangeState()
		}
		for v := 0; v < g.NumNodes(); v++ {
			node := cfg.Node(v)
			want := rp.Init(g, node)
			if node == cfg.Entry {
				want = rp.Boundary(g)
			}
			for _, pred := range g.Preds[node] {
				want = rp.Join(want, rp.RefineEdge(g, pred, node, sol.Out[pred]))
			}
			if !rangeWithin(want, sol.In[node]) {
				t.Errorf("%s: node %d is no post-fixpoint: its inputs join to %v, outside In %v", what, node, want.Reg, sol.In[node].Reg)
			}
		}
	}
}

// rangeWithin reports a ⊑ b in the range lattice.
func rangeWithin(a, b RangeState) bool {
	if !a.Reached {
		return true
	}
	if !b.Reached {
		return false
	}
	for i := range a.Reg {
		if !a.Reg[i].Within(b.Reg[i].Lo, b.Reg[i].Hi) {
			return false
		}
	}
	return true
}

// TestRangeAnalysisReachesPostFixpoint: the range analysis converges on
// every function of the nine benchmarks and of random programs, so the
// facts it distills come from a proven post-fixpoint.
func TestRangeAnalysisReachesPostFixpoint(t *testing.T) {
	for _, b := range workload.All() {
		p, err := b.Build(0.02)
		if err != nil {
			t.Fatal(err)
		}
		checkRangePostFixpoint(t, b.Name, p)
	}
	for seed := int64(1); seed <= 200; seed++ {
		checkRangePostFixpoint(t, fmt.Sprintf("randprog %d", seed), randprog.MustGenerate(seed, randprog.Options{}))
	}
}
