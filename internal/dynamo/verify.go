// Static program admission and the static scheme's load-time translation.
//
// Every System runs the CFG verifier (internal/cfg) over its program before
// executing a single instruction: a program with error-class malformations
// (wild jump targets, fall-through off the end, counterless infinite loops,
// ...) is refused with a structured *cfg.VerifyError rather than risking an
// interpreter fault mid-run. Verdicts are memoized per program pointer — an
// experiment grid spawns many Systems over the same read-only program, and
// the verifier only needs to run once.
package dynamo

import (
	"netpath/internal/cfg"
	"netpath/internal/dataflow"
	"netpath/internal/isa"
	"netpath/internal/prog"
	"netpath/internal/staticpred"
)

// verifyCache memoizes Verify's verdicts.
var verifyCache = prog.NewMemo[error]()

// Verify returns the static verifier's verdict for p (cfg.VerifyProgram),
// computing it at most once per resident program. It is the gate New runs
// at load time, so a caller that verifies a program and then hands the same
// pointer to New pays for verification once.
func Verify(p *prog.Program) error {
	return verifyCache.Do(p, cfg.VerifyProgram)
}

// prebuildStatic populates the fragment cache from the static predictor's
// maximum-likelihood walks — the static scheme's whole "profiling" phase,
// run at load time with zero runtime counters. Each completed walk becomes
// a trace recorded exactly as the online recorder would have recorded it
// (one GuestStep per predicted instruction), then optimized and installed
// through the ordinary emit path so cycle accounting charges the one-time
// translation cost. Walks that abort on indirect control carry no steps and
// are skipped; a trailing halt is trimmed because online recordings end at
// path boundaries, never at the halt itself.
func (s *System) prebuildStatic(p *prog.Program) {
	a, err := staticpred.Analyze(p)
	if err != nil {
		// Analyze only fails where the verifier would have failed first;
		// a verified program always analyzes. Degrade to an empty cache.
		return
	}
	built := 0
	for _, w := range a.Walks() {
		if w.Aborted || len(w.Steps) == 0 {
			continue
		}
		steps := make([]dataflow.GuestStep, 0, len(w.Steps))
		for _, st := range w.Steps {
			in := p.Instrs[st.PC]
			if in.Op == isa.Halt {
				break
			}
			steps = append(steps, dataflow.GuestStep{PC: st.PC, In: in, Next: st.Next})
		}
		if len(steps) == 0 || s.cache.get(w.Head) != nil {
			continue
		}
		s.emit(w.Head, steps)
		built++
	}
	if s.tel != nil {
		s.tel.Add(telStaticPrebuilt, int64(built))
	}
}
