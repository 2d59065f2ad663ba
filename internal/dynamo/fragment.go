package dynamo

import (
	"math/bits"
	"sync/atomic"

	"netpath/internal/dataflow"
	"netpath/internal/isa"
	"netpath/internal/vm"
)

// Fragment is an optimized trace resident in the fragment cache.
type Fragment struct {
	// Start is the path head address the fragment is keyed by.
	Start int
	// Steps is the recorded trace. Eliminated steps still execute
	// semantically in the simulation but cost nothing, modelling code the
	// emitted fragment genuinely does not contain.
	Steps []dataflow.GuestStep
	// Eliminated counts optimized-away instructions.
	Eliminated int

	// code is the trace lowered for vm.RunTrace when the fragment is built
	// (at emit and at restore): per step, the recorded successor and the
	// redirect and eliminated counts before it, so the executor settles
	// any straight run [from,to) with prefix lookups instead of per-step
	// branches.
	code []vm.TraceStep
	// Enters and Completions are runtime statistics.
	Enters      int64
	Completions int64
	EarlyExits  int64
	// Aborts counts injected execution faults in this fragment; reaching
	// Config.DemoteAfterAborts demotes it back to interpretation.
	Aborts int64

	// Tier-2 state (see tier2.go). t2 is the published superblock — the ONLY
	// fragment field a background compile worker writes, and it is atomic;
	// everything below it is mutator-only, so publication is a single
	// release/acquire pair with no locks on the dispatch path.
	t2 atomic.Pointer[t2Block]
	// t2Queued marks a compile job in flight (set at enqueue, cleared only
	// by deopt, which requires a published block — so at most one job per
	// fragment is ever outstanding).
	t2Queued bool
	// t2Next is the completion count at which promotion is (re)attempted;
	// deopts push it out exponentially.
	t2Next int64
	// t2Base is the Flow that Restore credited to Completions from a
	// persisted trace: a prior that orders the restore, never evidence.
	// Promotion, Snapshot and CacheStats count only Completions - t2Base.
	t2Base int64
	// t2Deopts counts torn-down superblocks (drives the backoff shift).
	t2Deopts int64
	// t2Enters/t2Short drive the deopt heuristic: entries vs. unproductive
	// entries (entry-guard failures and first-half divergences).
	t2Enters int64
	t2Short  int64
	// t2Credited marks the published block's compile statistics as folded
	// into the run's counters (done by the mutator at first pickup; cleared
	// on deopt so a re-published block credits again).
	t2Credited bool
}

// Len returns the trace length in instructions.
func (f *Fragment) Len() int { return len(f.Steps) }

// EmittedLen returns the number of instructions actually emitted (not
// eliminated).
func (f *Fragment) EmittedLen() int { return len(f.Steps) - f.Eliminated }

// fragCache is the fragment cache: resident fragments indexed by the guest
// address they start at. Every fragment entry, exit and link looks its
// target up here, so the lookup is a bounds-checked slice index rather than
// a map probe. The table spans the program plus one address (a trace may
// end by falling off the last instruction) and is allocated once per
// System; flushes clear it in place.
type fragCache struct {
	frags []*Fragment
	n     int // resident fragments
}

func newFragCache(progLen int) fragCache {
	return fragCache{frags: make([]*Fragment, progLen+1)}
}

// get returns the fragment starting at addr, or nil (also for any address
// outside the program).
func (c *fragCache) get(addr int) *Fragment {
	if uint(addr) < uint(len(c.frags)) {
		return c.frags[addr]
	}
	return nil
}

// put installs fr at addr, replacing any fragment there.
func (c *fragCache) put(addr int, fr *Fragment) {
	if c.frags[addr] == nil {
		c.n++
	}
	c.frags[addr] = fr
}

// remove evicts the fragment at addr, if any.
func (c *fragCache) remove(addr int) {
	if c.frags[addr] != nil {
		c.frags[addr] = nil
		c.n--
	}
}

// clear evicts every fragment.
func (c *fragCache) clear() {
	if c.n > 0 {
		clear(c.frags)
		c.n = 0
	}
}

// len returns the number of resident fragments.
func (c *fragCache) len() int { return c.n }

// Optimizer applies Dynamo's lightweight trace optimizations to a recorded
// trace. Passes are deliberately conservative: an instruction is eliminated
// only when no on-trace use and no side exit could observe the difference
// in the modelled machine. A nil *Optimizer runs no passes
// (Config.DisableOptimizer).
type Optimizer struct {
	// Stats per pass, accumulated across all optimized traces.
	FoldedOps      int64
	FoldedBranches int64
	LoadsRemoved   int64
	DeadRemoved    int64
	JumpsRemoved   int64
}

// NewOptimizer returns an optimizer with zeroed statistics.
func NewOptimizer() *Optimizer { return &Optimizer{} }

// Optimize builds a fragment from a recorded trace.
func (o *Optimizer) Optimize(start int, steps []dataflow.GuestStep) *Fragment {
	fr := &Fragment{Start: start, Steps: steps}
	if o != nil {
		o.straightenJumps(fr)
		o.foldConstants(fr)
		o.removeRedundantLoads(fr)
		o.removeDeadWrites(fr)
	}
	for i := range fr.Steps {
		if fr.Steps[i].Eliminated {
			fr.Eliminated++
		}
	}
	fr.lower()
	return fr
}

// lower builds the fragment's lowered trace. A step's redirect is judged
// from the address it actually runs at — the head, then each recorded
// successor — so the counts match the branch events a live run delivers.
func (f *Fragment) lower() {
	f.code = make([]vm.TraceStep, len(f.Steps))
	var redirs, elided int32
	pc := f.Start
	for i := range f.Steps {
		s := &f.Steps[i]
		f.code[i] = vm.TraceStep{Next: int32(s.Next), Redirs: redirs, Elided: elided}
		if s.Next != pc+1 {
			redirs++
		}
		if s.Eliminated {
			elided++
		}
		pc = s.Next
	}
}

// elidedBefore returns the number of eliminated steps among Steps[:i].
func (f *Fragment) elidedBefore(i int) int32 {
	if i == len(f.code) {
		return int32(f.Eliminated)
	}
	return f.code[i].Elided
}

func eliminate(s *dataflow.GuestStep, why string) {
	if !s.Eliminated {
		s.Eliminated = true
		s.Why = why
	}
}

// straightenJumps removes unconditional direct jumps: fragment layout makes
// the recorded successor the fall-through.
func (o *Optimizer) straightenJumps(fr *Fragment) {
	for i := range fr.Steps {
		s := &fr.Steps[i]
		if s.In.Op == isa.Jmp && !s.Eliminated {
			eliminate(s, dataflow.WhyJumpStraightened)
			o.JumpsRemoved++
		}
	}
}

// foldConstants tracks registers with compile-time-known values along the
// trace and eliminates pure ops whose result is known, plus conditional
// branches whose outcome is decided by known operands (the emitted fragment
// needs no guard for them). Calls and returns kill nothing: the callee's
// steps are on the trace and transfer individually.
func (o *Optimizer) foldConstants(fr *Fragment) {
	var known uint32 // bit r: register r holds val[r]
	var val [isa.NumRegs]int64

	for i := range fr.Steps {
		s := &fr.Steps[i]
		in := s.In
		u := in.Uses()
		switch {
		case in.Op.IsALU() && known&u == u:
			val[in.A] = in.Result(&val)
			known |= 1 << in.A
			// The constant seed itself stays (something must materialize
			// the value for side exits), but it enables downstream folds.
			if in.Op != isa.MovI {
				eliminate(s, dataflow.WhyConstFolded)
				o.FoldedOps++
			}
		case in.Op.IsConditional() && known&u == u:
			eliminate(s, dataflow.WhyBranchFolded)
			o.FoldedBranches++
		default:
			if d, ok := in.Def(); ok {
				known &^= 1 << d
			}
		}
	}
}

// removeRedundantLoads eliminates a load whose (base register version,
// offset) was loaded earlier on the trace with no intervening store or base
// redefinition; the fragment reuses the earlier register value.
func (o *Optimizer) removeRedundantLoads(fr *Fragment) {
	type key struct {
		baseVer int64
		off     int64
	}
	var regVer [isa.NumRegs]int64
	ver := int64(1)
	bump := func(r uint8) { ver++; regVer[r] = ver }
	avail := map[key]bool{}

	for i := range fr.Steps {
		s := &fr.Steps[i]
		in := s.In
		switch in.Op {
		case isa.Load:
			k := key{baseVer: regVer[in.B]<<8 | int64(in.B), off: in.Imm}
			if avail[k] && !s.Eliminated {
				eliminate(s, dataflow.WhyRedundantLoad)
				o.LoadsRemoved++
			} else {
				avail[k] = true
			}
			bump(in.A)
		case isa.Store:
			// Conservative: any store invalidates all available loads.
			avail = map[key]bool{}
		case isa.Call, isa.CallInd, isa.Ret:
			// Callee code is not on this trace record boundary-wise only
			// when the trace crosses calls; memory may change → invalidate.
			avail = map[key]bool{}
		default:
			if d, ok := in.Def(); ok {
				bump(d)
			}
		}
	}
}

// removeDeadWrites eliminates register writes that are overwritten before
// any read, with no side exit (conditional branch, indirect branch, call, or
// return) in between — a side exit makes every register live. A register
// write is always the instruction's only effect: loads are pure in this
// machine (no I/O, and the recording run already executed them in bounds).
func (o *Optimizer) removeDeadWrites(fr *Fragment) {
	// lastWrite[r] = index of a pending (unread) write to r, or -1.
	var lastWrite [isa.NumRegs]int
	for r := range lastWrite {
		lastWrite[r] = -1
	}

	for i := range fr.Steps {
		s := &fr.Steps[i]
		in := s.In
		// Reads first.
		for u := in.Uses(); u != 0; u &= u - 1 {
			lastWrite[bits.TrailingZeros32(u)] = -1
		}
		// Side exits make all pending writes live.
		if in.Op.IsControl() {
			for r := range lastWrite {
				lastWrite[r] = -1
			}
			continue
		}
		if d, ok := in.Def(); ok {
			if j := lastWrite[d]; j >= 0 && !fr.Steps[j].Eliminated {
				eliminate(&fr.Steps[j], dataflow.WhyDeadWrite)
				o.DeadRemoved++
			}
			lastWrite[d] = i
		}
	}
}
