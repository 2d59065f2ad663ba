package vm

import (
	"fmt"
	"testing"

	"netpath/internal/isa"
	"netpath/internal/prog"
	"netpath/internal/randprog"
)

// yielder records events and asks the machine to yield after every k-th.
type yielder struct {
	m   *Machine
	k   int
	evs []BranchEvent
}

func (y *yielder) OnBranch(ev BranchEvent) {
	y.evs = append(y.evs, ev)
	if len(y.evs)%y.k == 0 {
		y.m.Yield()
	}
}

// refStepper is the legacy engine stepped one instruction at a time, the
// reference the batched loops are compared against.
type refStepper struct {
	m   *Machine
	rec *recorder
	err error
}

func newRef(p *prog.Program) *refStepper {
	r := &refStepper{m: New(p), rec: &recorder{}}
	r.m.SetEngine(EngineLegacy)
	r.m.SetSink(r.rec)
	return r
}

// stepTo steps the reference until it has executed n instructions or
// stopped.
func (r *refStepper) stepTo(n int64) {
	for r.err == nil && !r.m.Halted && r.m.Steps < n {
		r.err = r.m.Step()
	}
}

// TestLockstepRunToYield checks RunToYield against the legacy stepper: a
// yield returns exactly at the instruction boundary after the event, and a
// run resumed yield after yield ends in the same state, fault and event
// stream as plain per-step execution.
func TestLockstepRunToYield(t *testing.T) {
	var progs []*prog.Program
	for seed := int64(1); seed <= 12; seed++ {
		progs = append(progs, randprog.MustGenerate(seed, randprog.Options{}))
	}
	progs = append(progs,
		rawProgram([]isa.Instr{{Op: isa.Jmp, Target: 55}}, 8),
		rawProgram([]isa.Instr{{Op: isa.MovI, A: 1, Imm: 1}, {Op: isa.JmpInd, A: 1}}, 8),
		rawProgram([]isa.Instr{{Op: isa.Add, A: 40, B: 1, C: 2}}, 8))
	for i, p := range progs {
		for _, k := range []int{1, 3, 64} {
			for _, budget := range []int64{0, 1_000} {
				tag := fmt.Sprintf("%d/%s/k%d/budget%d", i, p.Name, k, budget)
				m := New(p)
				y := &yielder{m: m, k: k}
				m.SetSink(y)
				ref := newRef(p)
				var err error
				for {
					err = m.RunToYield(budget)
					if err != nil || m.Halted {
						break
					}
					// A yield: the reference, stepped until it has delivered
					// as many events, must be in the same state.
					for ref.err == nil && !ref.m.Halted && len(ref.rec.evs) < len(y.evs) {
						ref.err = ref.m.Step()
					}
					compareCore(t, tag, m, ref.m)
				}
				if budget > 0 {
					ref.stepTo(budget)
				} else {
					ref.stepTo(1 << 62)
				}
				if budget > 0 && ref.err == nil && !ref.m.Halted {
					ref.err = ErrStepLimit
				}
				if ok, why := sameStepErr(err, ref.err); !ok {
					t.Fatalf("%s: errors diverge (%s): batched=%v reference=%v", tag, why, err, ref.err)
				}
				compareState(t, tag, m, ref.m)
				compareEvents(t, tag, y.evs, ref.rec.evs)
			}
		}
	}
}

// traceOf lowers a recorded run of (pc, next) steps into a trace.
func traceOf(pcs, nexts []int) []TraceStep {
	tr := make([]TraceStep, len(pcs))
	var r int32
	for i := range pcs {
		tr[i] = TraceStep{Next: int32(nexts[i]), Redirs: r}
		if nexts[i] != pcs[i]+1 {
			r++
		}
	}
	return tr
}

// TestLockstepRunTrace replays windows of a recorded run through RunTrace
// with the sink installed but muted: an exact trace completes, a corrupted
// successor diverges at that step, a tight budget stops before the next
// step, and in every case the state, step count and redirect count match
// the legacy stepper's.
func TestLockstepRunTrace(t *testing.T) {
	progs := []*prog.Program{
		randprog.MustGenerate(3, randprog.Options{}),
		randprog.MustGenerate(7, randprog.Options{}),
		randprog.MustGenerate(11, randprog.Options{MaxDepth: 4, MaxBody: 8}),
		rawProgram([]isa.Instr{{Op: isa.MovI, A: 1, Imm: 2}, {Op: isa.Jmp, Target: 55}}, 8),
		rawProgram([]isa.Instr{{Op: isa.MovI, A: 1, Imm: 99}, {Op: isa.Load, A: 2, B: 1}}, 8),
		rawProgram([]isa.Instr{{Op: isa.Nop}, {Op: isa.Halt}}, 8),
	}
	for _, p := range progs {
		// Record the whole run: per step its pc and successor.
		rec := newRef(p)
		var pcs, nexts []int
		for rec.err == nil && !rec.m.Halted && rec.m.Steps < 20_000 {
			pc := rec.m.PC
			rec.err = rec.m.Step()
			pcs, nexts = append(pcs, pc), append(nexts, rec.m.PC)
		}
		const window = 37
		for _, mode := range []string{"exact", "diverge", "budget"} {
			tag := p.Name + "/" + mode
			m := New(p)
			muted := &recorder{}
			m.SetSink(muted)
			ref := newRef(p)
			for at := 0; at < len(pcs) && !m.Halted; {
				end := min(at+window, len(pcs))
				tr := traceOf(pcs[at:end], nexts[at:end])
				var budget int64
				want := len(tr) - 1 // the step the run stops at
				switch mode {
				case "diverge":
					want = (at / 3) % len(tr)
					tr[want].Next = -5
				case "budget":
					if len(tr) > 2 {
						want = len(tr) / 2
						budget = m.Steps + int64(want)
					}
				}
				x := m.RunTrace(tr, 0, budget)
				stopped := x.Err != nil || m.Halted
				executed := want + 1
				if budget > 0 {
					executed = want
				}
				if !stopped && x.Pos != want {
					t.Fatalf("%s at %d: stopped at %d, want %d", tag, at, x.Pos, want)
				}
				if stopped {
					executed = x.Pos + 1
				}
				before := len(ref.rec.evs)
				ref.stepTo(m.Steps)
				redirs := int64(0)
				for _, ev := range ref.rec.evs[before:] {
					if ev.Target != ev.PC+1 {
						redirs++
					}
				}
				if x.Redirects != redirs {
					t.Fatalf("%s at %d: %d redirects, reference %d", tag, at, x.Redirects, redirs)
				}
				if ok, why := sameStepErr(x.Err, ref.err); !ok {
					t.Fatalf("%s at %d: errors diverge (%s): trace=%v reference=%v", tag, at, why, x.Err, ref.err)
				}
				compareState(t, tag, m, ref.m)
				if x.Err == nil && !m.Halted && budget == 0 && x.NextPC != m.PC {
					t.Fatalf("%s at %d: NextPC %d, machine at %d", tag, at, x.NextPC, m.PC)
				}
				if len(muted.evs) != 0 {
					t.Fatalf("%s: RunTrace delivered %d events to a muted sink", tag, len(muted.evs))
				}
				at += executed
			}
		}
	}
}

// TestLockstepRunMuted runs each program through RunMuted in chunks and
// checks every chunk against the legacy stepper: the same state, step count
// and fault, no event delivered to the muted sink, redirects equal to the
// reference's events whose target is not the fall-through, and
// faultRedirect set exactly when the faulting step delivered such an event
// — an out-of-range transfer — so that redirects without it counts the
// completed steps whose successor is not their fall-through.
func TestLockstepRunMuted(t *testing.T) {
	var progs []*prog.Program
	for seed := int64(1); seed <= 12; seed++ {
		progs = append(progs, randprog.MustGenerate(seed, randprog.Options{}))
	}
	progs = append(progs,
		rawProgram([]isa.Instr{{Op: isa.MovI, A: 1, Imm: 2}, {Op: isa.Jmp, Target: 55}}, 8),
		rawProgram([]isa.Instr{{Op: isa.Br, Cond: isa.Eq, A: 1, B: 2, Target: -9}}, 8),
		// A return to the address past the last instruction: the call is
		// the last instruction, so its return address is out of range.
		rawProgram([]isa.Instr{{Op: isa.Jmp, Target: 2}, {Op: isa.Ret}, {Op: isa.Call, Target: 1}}, 8),
		// Out-of-range transfers to pc+1, which are not redirects.
		rawProgram([]isa.Instr{{Op: isa.Jmp, Target: 1}, {Op: isa.MovI, A: 1, Imm: 7}}, 8),
		rawProgram([]isa.Instr{{Op: isa.Jmp, Target: 1}, {Op: isa.Br, Cond: isa.Ne, A: 1, B: 1, Target: 0}}, 8),
		rawProgram([]isa.Instr{{Op: isa.MovI, A: 1, Imm: 99}, {Op: isa.Load, A: 2, B: 1}}, 8),
		rawProgram([]isa.Instr{{Op: isa.MovI, A: 1, Imm: 1}, {Op: isa.JmpInd, A: 1}}, 8),
		rawProgram([]isa.Instr{{Op: isa.Jmp, Target: 1}, {Op: isa.Add, A: 40, B: 1, C: 2}}, 8),
		rawProgram([]isa.Instr{{Op: isa.Jmp, Target: 1}, {Op: isa.Halt}}, 8))
	var faultRedirects, plainFaults int
	for i, p := range progs {
		for _, chunk := range []int64{1, 7, 1_000, 1 << 40} {
			tag := fmt.Sprintf("%d/%s/chunk%d", i, p.Name, chunk)
			m := New(p)
			muted := &recorder{}
			m.SetSink(muted)
			ref := newRef(p)
			for !m.Halted && m.Steps < 50_000 {
				from := m.Steps
				redirs, faultRedir, err := m.RunMuted(m.Steps + chunk)
				if err == ErrStepLimit {
					err = nil
				}
				before := len(ref.rec.evs)
				// Count the reference's completed steps that left the
				// fall-through, stepping it to the same step count.
				var taken int64
				for ref.err == nil && !ref.m.Halted && ref.m.Steps < m.Steps {
					pc := ref.m.PC
					if ref.err = ref.m.Step(); ref.err == nil && !ref.m.Halted && ref.m.PC != pc+1 {
						taken++
					}
				}
				if err != nil && ref.err == nil && !ref.m.Halted {
					// A bad-register fault leaves Steps where it was.
					ref.err = ref.m.Step()
				}
				var evRedirs int64
				for _, ev := range ref.rec.evs[before:] {
					if ev.Target != ev.PC+1 {
						evRedirs++
					}
				}
				if ok, why := sameStepErr(err, ref.err); !ok {
					t.Fatalf("%s at %d: errors diverge (%s): muted=%v reference=%v", tag, from, why, err, ref.err)
				}
				compareState(t, tag, m, ref.m)
				if redirs != evRedirs {
					t.Fatalf("%s at %d: %d redirects, reference events %d", tag, from, redirs, evRedirs)
				}
				want := redirs
				if faultRedir {
					want--
				}
				if want != taken {
					t.Fatalf("%s at %d: %d redirects (fault redirect %v), reference took %d transfers", tag, from, redirs, faultRedir, taken)
				}
				if faultRedir {
					faultRedirects++
				} else if err != nil {
					plainFaults++
				}
				if err != nil {
					break
				}
			}
			if len(muted.evs) != 0 {
				t.Fatalf("%s: RunMuted delivered %d events to a muted sink", tag, len(muted.evs))
			}
		}
	}
	if faultRedirects == 0 || plainFaults == 0 {
		t.Errorf("corpus ended %d runs on a redirecting transfer fault and %d on other faults, want some of each", faultRedirects, plainFaults)
	}
}
