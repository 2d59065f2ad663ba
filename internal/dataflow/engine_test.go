package dataflow

import (
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

// TestSolveMatchesReference pins the stale-input skip as exact: Solve and
// the reference loop agree on In, Out and Rounds for every function of the
// nine benchmarks and of random programs. gcc's range problems run the
// reference into the round limit (tens of seconds), so -short leaves gcc
// out.
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
