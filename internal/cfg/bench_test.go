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
