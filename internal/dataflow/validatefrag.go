// Tier-1 fragment validation.
//
// The tier-1 optimizer does not reorder or rewrite instructions — it marks
// trace steps Eliminated, modelling code the emitted fragment would not
// contain (the simulation still executes every step; elimination is a claim
// about the code a real translator would emit, and it drives both the cycle
// model and the tier-2 cost accounting). The validator's obligations are
// therefore: the recorded trace must be a legal execution path of the
// program, and every elimination claim must be independently re-derivable
// from the instruction sequence under the optimizer's published rules. Each
// rule is re-implemented here from its specification, not shared with the
// optimizer, so a bug or a corrupted trace (a bad snapshot restore, a
// hand-edited profile) is caught before the fragment enters the cache.
package dataflow

import (
	"fmt"
	"math/bits"

	"netpath/internal/isa"
	"netpath/internal/prog"
)

// GuestStep is one recorded guest instruction of a tier-1 trace: the trace
// recorder produces it, the tier-1 optimizer marks its eliminations on it,
// and ValidateFragment checks it.
type GuestStep struct {
	PC int
	In isa.Instr
	// Next is the address the recording run continued at after this
	// instruction (PC+1 for straight-line code, the observed target for
	// control transfers).
	Next int
	// Eliminated marks a step the optimizer claims the emitted fragment
	// does not contain; Why names the rule that justified it.
	Eliminated bool
	Why        string
}

// Elimination rule names, recorded in GuestStep.Why by the tier-1 optimizer
// and re-derived by ValidateFragment.
const (
	WhyJumpStraightened = "jump-straightened"
	WhyConstFolded      = "const-folded"
	WhyBranchFolded     = "branch-folded"
	WhyRedundantLoad    = "redundant-load"
	WhyDeadWrite        = "dead-write"
)

// loadKey identifies a loaded address by (base register version, offset):
// two loads with the same key read the same memory cell with the same base
// value, provided no store or call boundary intervened.
type loadKey struct {
	baseVer int64
	off     int64
}

// ValidateFragment checks a recorded tier-1 trace starting at start: the
// steps must be a legal execution path of p, and every Eliminated step's
// claim must re-derive under the optimizer's conservative rules. A nil
// error means a fragment built from these steps is architecturally faithful
// to per-step execution.
func ValidateFragment(p *prog.Program, start int, steps []GuestStep) error {
	if p == nil {
		return fmt.Errorf("dataflow: validate fragment: no program")
	}
	if len(steps) == 0 {
		return fmt.Errorf("dataflow: validate fragment: empty trace")
	}
	if steps[0].PC != start {
		return fmt.Errorf("dataflow: validate fragment: head pc %d != fragment start %d", steps[0].PC, start)
	}

	f := &Facts{Prog: p}
	if err := checkPath(f, len(steps), func(i int) (int, isa.Instr, int) {
		return steps[i].PC, steps[i].In, steps[i].Next
	}); err != nil {
		return fmt.Errorf("dataflow: validate fragment: %w", err)
	}

	// Replay the optimizer's analyses. All of them walk every step
	// regardless of elimination flags (an eliminated MovI still seeds a
	// constant; an eliminated load still populates availability), so the
	// replay state is a function of the instruction sequence alone.
	var known uint32 // bit r: register r holds val[r]
	var val [isa.NumRegs]int64
	var regVer [isa.NumRegs]int64
	ver := int64(1)
	bump := func(r uint8) { ver++; regVer[r] = ver }
	avail := map[loadKey]bool{}

	for i := range steps {
		st := &steps[i]
		in := st.In

		if st.Eliminated {
			if err := checkElimClaim(steps, i, known, &val, avail, regVer); err != nil {
				return fmt.Errorf("dataflow: validate fragment: step %d (pc %d, %q): %w", i, st.PC, st.Why, err)
			}
		}

		// Constant tracking (mirrors the fold rules: trace-local, no kills
		// across calls because callee steps are themselves on the trace).
		if d, ok := in.Def(); ok {
			if u := in.Uses(); in.Op.IsALU() && known&u == u {
				val[d] = in.Result(&val)
				known |= 1 << d
			} else {
				known &^= 1 << d
			}
		}

		// Load availability (conservative: stores and call boundaries
		// invalidate everything; any register write bumps its version).
		switch in.Op {
		case isa.Load:
			avail[loadKey{baseVer: regVer[in.B]<<8 | int64(in.B), off: in.Imm}] = true
			bump(in.A)
		case isa.Store:
			avail = map[loadKey]bool{}
		case isa.Call, isa.CallInd, isa.Ret:
			avail = map[loadKey]bool{}
		default:
			if d, ok := in.Def(); ok {
				bump(d)
			}
		}
	}
	return nil
}

// checkElimClaim re-derives the elimination claim at step i from the replay
// state current just before the step.
func checkElimClaim(steps []GuestStep, i int, known uint32, val *[isa.NumRegs]int64,
	avail map[loadKey]bool, regVer [isa.NumRegs]int64) error {
	in := steps[i].In
	switch steps[i].Why {
	case WhyJumpStraightened:
		if in.Op != isa.Jmp {
			return fmt.Errorf("claimed on %v; rule applies only to jmp", in.Op)
		}
		return nil

	case WhyConstFolded:
		if !in.Op.IsALU() || in.Op == isa.MovI {
			return fmt.Errorf("claimed on %v; not a foldable op", in.Op)
		}
		if unknown := in.Uses() &^ known; unknown != 0 {
			return fmt.Errorf("operand r%d not provably constant here", bits.TrailingZeros32(unknown))
		}
		return nil

	case WhyBranchFolded:
		if !in.Op.IsConditional() {
			return fmt.Errorf("claimed on %v; rule applies only to conditional branches", in.Op)
		}
		if unknown := in.Uses() &^ known; unknown != 0 {
			return fmt.Errorf("operand r%d not provably constant here", bits.TrailingZeros32(unknown))
		}
		rhs := in.Imm
		if in.Op == isa.Br {
			rhs = val[in.B]
		}
		decided := in.Cond.Eval(val[in.A], rhs)
		if recorded := steps[i].Next == int(in.Target); decided != recorded {
			return fmt.Errorf("constants decide the branch against the recorded direction")
		}
		return nil

	case WhyRedundantLoad:
		if in.Op != isa.Load {
			return fmt.Errorf("claimed on %v; rule applies only to loads", in.Op)
		}
		k := loadKey{baseVer: regVer[in.B]<<8 | int64(in.B), off: in.Imm}
		if !avail[k] {
			return fmt.Errorf("no prior load of the same address version survives to this point")
		}
		return nil

	case WhyDeadWrite:
		// Every register write on this machine is its instruction's only
		// architectural effect: loads have no I/O, and a recorded trace
		// already executed them in bounds.
		d, ok := in.Def()
		if !ok {
			return fmt.Errorf("claimed on %v; no register write", in.Op)
		}
		// Re-derive forward: r%d must be overwritten before any read, with
		// no side exit in between (a side exit exposes every register).
		for j := i + 1; j < len(steps); j++ {
			nj := steps[j].In
			if nj.Uses()&(1<<d) != 0 {
				return fmt.Errorf("r%d read at step %d before being overwritten", d, j)
			}
			if nj.Op.IsControl() {
				return fmt.Errorf("side exit at step %d exposes the pending write to r%d", j, d)
			}
			if dj, ok := nj.Def(); ok && dj == d {
				return nil
			}
		}
		return fmt.Errorf("r%d never overwritten on the remaining trace", d)

	default:
		return fmt.Errorf("unknown elimination rule")
	}
}
