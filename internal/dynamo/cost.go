// Package dynamo implements a miniature of the Dynamo dynamic optimization
// system (Bala, Duesterwald, Banerjia; Section 6 of the paper), faithful in
// structure: a profiled interpreter observes the running program, a hot
// path selector (NET or path-profile-based) picks traces, selected traces
// are optimized and emitted into a fragment cache, fragments link to each
// other, and heuristics flush the cache on phase changes or bail out to
// native execution when the program defeats trace caching.
//
// A run only counts events: interpreted instructions, head-counter hits,
// bit shifts, path-table updates, recorded and optimized instructions,
// fragment instructions, transitions, and flushes. Cycles are a price on
// those counts, set once at the end of the run by CostModel.Price, and no
// decision reads them. The real system's speedups and slowdowns come from
// the relative weights of interpretation, per-branch profiling work, and
// optimized fragment execution, and those are exactly the model's terms.
// Measured wall-clock time lives in the repository benchmark (bench/).
package dynamo

// CostModel assigns cycle costs to the events of the simulation. All values
// are in units of one native instruction cycle.
type CostModel struct {
	// NativeInstr is the baseline cost of one instruction executed natively.
	NativeInstr float64
	// TakenPenalty is the extra native cost of a taken branch (pipeline
	// redirect). Fragments lay hot paths out straight, so recorded-taken
	// branches in cache cost no penalty — the classic trace-layout win.
	TakenPenalty float64

	// InterpInstr is the cost of interpreting one instruction (fetch,
	// decode, dispatch in software).
	InterpInstr float64

	// HeadCounter is NET's per-observation cost: one counter lookup and
	// increment at a path head (only at path starts — the entire profiling
	// cost of the scheme).
	HeadCounter float64

	// BitShift is path-profile-based prediction's per-conditional-branch
	// cost (shifting an outcome bit into the history register).
	BitShift float64
	// IndAppend is the per-indirect-branch signature append cost.
	IndAppend float64
	// PathTableUpdate is the per-path-completion cost (hash the signature,
	// look up the path table, increment).
	PathTableUpdate float64

	// RecordInstr is the per-instruction cost of recording a selected trace.
	RecordInstr float64
	// OptimizeInstr is the one-time per-instruction cost of optimizing and
	// emitting a recorded trace into the cache.
	OptimizeInstr float64

	// FragInstr is the cost of one non-eliminated fragment instruction.
	FragInstr float64
	// FragEnter is the interpreter-to-cache dispatch cost (context save,
	// counter table lookup).
	FragEnter float64
	// FragExit is the cache-to-interpreter exit cost (context restore
	// through an exit stub).
	FragExit float64
	// LinkedJump is the cost of a direct fragment-to-fragment transfer.
	LinkedJump float64

	// FlushCost is the one-time cost of flushing the fragment cache.
	FlushCost float64
}

// DefaultCosts returns the cost model used in the reported experiments.
// The interpreter is ~12x native — deliberately conservative; real
// instruction-set emulators run 20-100x slower than native, which would
// only widen the gap the experiments demonstrate.
func DefaultCosts() CostModel {
	return CostModel{
		NativeInstr:     1.0,
		TakenPenalty:    1.0,
		InterpInstr:     12.0,
		HeadCounter:     4.0,
		BitShift:        2.0,
		IndAppend:       4.0,
		PathTableUpdate: 24.0,
		RecordInstr:     10.0,
		OptimizeInstr:   30.0,
		FragInstr:       1.0,
		FragEnter:       8.0,
		FragExit:        20.0,
		LinkedJump:      1.0,
		FlushCost:       10_000.0,
	}
}

// Price fills r's cycle fields from its event counts, one term per count.
// Every field is assigned, so pricing the same Result twice is harmless.
func (c CostModel) Price(r *Result) {
	r.NativeCycles = float64(r.Steps)*c.NativeInstr + float64(r.Redirects)*c.TakenPenalty
	r.InterpCycles = float64(r.InterpInstrs) * c.InterpInstr
	r.FragCycles = float64(r.FragInstrs-r.ElimInstrs) * c.FragInstr
	r.ProfileCycles = float64(r.HeadCounterHits)*c.HeadCounter +
		float64(r.BitShifts)*c.BitShift +
		float64(r.IndAppends)*c.IndAppend +
		float64(r.PathTableUpdates)*c.PathTableUpdate
	r.BuildCycles = float64(r.RecordedInstrs)*c.RecordInstr + float64(r.OptimizedInstrs)*c.OptimizeInstr
	r.TransCycles = float64(r.FragEnters)*c.FragEnter +
		float64(r.FragExits)*c.FragExit +
		float64(r.LinkedJumps)*c.LinkedJump +
		float64(r.Flushes)*c.FlushCost
	r.Cycles = r.InterpCycles + r.FragCycles + r.ProfileCycles + r.BuildCycles + r.TransCycles +
		float64(r.NativeInstrs)*c.NativeInstr + float64(r.NativeRedirects)*c.TakenPenalty
}
