package dataflow

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

// BenchmarkAnalyze times the whole-program range analysis behind
// netasm analyze and pathdump check. No run reads its facts.
func BenchmarkAnalyze(b *testing.B) {
	for _, p := range benchPrograms(b) {
		b.Run(p.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Analyze(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
