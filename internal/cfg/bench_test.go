package cfg

import (
	"testing"

	"netpath/internal/prog"
	"netpath/internal/randprog"
	"netpath/internal/workload"
)

// benchPrograms returns the static-pipeline benchmark inputs: gcc (the
// largest program, with a 12,537-node function), ijpeg (whose range
// problems ran into Solve's round limit until Widen kept infinite bounds
// pinned) and one small generated program.
func benchPrograms(b *testing.B) []*prog.Program {
	var ps []*prog.Program
	for _, name := range []string{"gcc", "ijpeg"} {
		w, err := workload.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		p, err := w.Build(0.02)
		if err != nil {
			b.Fatal(err)
		}
		ps = append(ps, p)
	}
	return append(ps, randprog.MustGenerate(1, randprog.Options{}))
}

// BenchmarkVerifyProgram times the load gate every program passes before
// its first instruction runs.
func BenchmarkVerifyProgram(b *testing.B) {
	for _, p := range benchPrograms(b) {
		b.Run(p.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := VerifyProgram(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestBuildAllocsPerGraph bounds Build's allocations per graph: the edge
// lists of all nodes share two arrays sized by a counting pass, so gcc's
// largest function (12,537 nodes) allocates about as many objects as its
// smallest. Growing each node's lists with append costs one or two
// allocations per node instead.
func TestBuildAllocsPerGraph(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Build(0.02)
	if err != nil {
		t.Fatal(err)
	}
	small, big := 0, 0
	nodes := make([]int, len(p.Funcs))
	for fi := range p.Funcs {
		g, err := Build(p, fi)
		if err != nil {
			t.Fatal(err)
		}
		nodes[fi] = g.NumNodes()
		if nodes[fi] < nodes[small] {
			small = fi
		}
		if nodes[fi] > nodes[big] {
			big = fi
		}
	}
	for _, fi := range []int{small, big} {
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := Build(p, fi); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 40 {
			t.Errorf("Build(%s), %d nodes, allocates %.0f objects, want at most 40", p.Funcs[fi].Name, nodes[fi], allocs)
		}
	}
}
