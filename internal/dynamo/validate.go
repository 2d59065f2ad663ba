// Translation validation and static-fact plumbing.
//
// When Config.ValidateEmits is set, every translation the engine is about to
// trust is first checked against the guest instruction sequence it claims to
// implement: tier-1 fragments at emit time (internal/dataflow's fragment
// validator re-derives each elimination claim), and tier-2 superblocks at
// compile time (the superblock validator symbolically executes the micro-op
// stream against the recorded trace). A rejected translation is simply not
// installed — the code path stays on the next tier down — and the rejection
// is counted, so a rejecting run is loud in results and telemetry without
// ever being wrong. Validation is on in tests and CI and off by default in
// production, where the counters alone are the tripwire.
//
// When Config.Tier2Elide is set, the whole-program dataflow analysis
// (internal/dataflow.Analyze) feeds the superblock compiler: memory accesses
// proven in-bounds lower to check-free fused handlers and branches the
// analysis decided compile to nothing. The analysis runs at most once per
// resident program — on a background compile worker, never the mutator —
// and is memoized exactly like the CFG verifier's verdicts.
package dynamo

import (
	"netpath/internal/dataflow"
	"netpath/internal/prog"
	"netpath/internal/telemetry"
	"netpath/internal/vm"
)

var (
	telValidateRejects = telemetry.NewCounter("dynamo_validator_rejects_total",
		"tier-1 fragment emits refused by the translation validator")
	telT2ValidateRejects = telemetry.NewCounter("dynamo_tier2_validator_rejects_total",
		"tier-2 superblocks refused publication by the translation validator")
)

// factsCache memoizes dataflow.Analyze by program identity, under the same
// bounds as verifyCache. A program whose analysis fails is cached as nil:
// callers degrade to fact-free compilation and validation.
var factsCache = newProgMemo[*dataflow.Facts]()

// ProgramFacts returns the memoized whole-program dataflow facts for p, or
// nil if the analysis failed (a verified program always analyzes; nil is
// pure defense). It is the memo the tier-2 compile workers read, so a
// caller that analyzes a program through it before running it spares the
// first compile the analysis: otherwise that compile waits for
// dataflow.Analyze, and a short run can end before any superblock lands.
func ProgramFacts(p *prog.Program) *dataflow.Facts {
	return factsCache.do(p, func(p *prog.Program) *dataflow.Facts {
		f, err := dataflow.Analyze(p)
		if err != nil {
			return nil
		}
		return f
	})
}

// sbFactsFor adapts dataflow facts to the superblock compiler's narrow
// interface.
func sbFactsFor(f *dataflow.Facts) vm.SBFacts {
	return vm.SBFacts{
		InBounds: f.InBounds,
		Decided: func(pc int32) (taken, ok bool) {
			switch f.Branch(pc) {
			case dataflow.BranchAlwaysTaken:
				return true, true
			case dataflow.BranchNeverTaken:
				return false, true
			}
			return false, false
		},
	}
}

// validateEmit checks an optimized fragment against the program before it
// enters the cache. Mutator-side, but only on the emit slow path and only
// under Config.ValidateEmits.
func (s *System) validateEmit(fr *Fragment) bool {
	err := dataflow.ValidateFragment(s.m.Prog, fr.Start, fr.Steps)
	s.res.ValidatorChecked++
	if err == nil {
		return true
	}
	s.res.ValidatorRejects++
	if s.tel != nil {
		s.tel.Inc(telValidateRejects)
	}
	return false
}

// creditT2Block folds a freshly published block's compile-time statistics
// into the run's counters. Called by the mutator the first time it loads the
// block (publication is the only cross-thread edge, so the worker cannot
// write results into s.res directly).
func (s *System) creditT2Block(blk *t2Block) {
	s.res.T2BoundsElided += int64(blk.stats.BoundsElided)
	s.res.T2GuardsImplied += int64(blk.stats.Implied)
	if blk.validated {
		s.res.T2ValidatorChecked++
		if blk.rejected {
			s.res.T2ValidatorRejects++
		}
	}
}
