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
// analysis decided compile to nothing. The compile workers read the facts
// from dataflow.ProgramFacts, the memo the static predictor also reads, so
// the analysis runs at most once per resident program, and on a background
// worker unless the static scheme already ran it at load time.
package dynamo

import (
	"netpath/internal/dataflow"
	"netpath/internal/telemetry"
	"netpath/internal/vm"
)

var (
	telValidateRejects = telemetry.NewCounter("dynamo_validator_rejects_total",
		"tier-1 fragment emits refused by the translation validator")
	telT2ValidateRejects = telemetry.NewCounter("dynamo_tier2_validator_rejects_total",
		"tier-2 superblocks refused publication by the translation validator")
)

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
