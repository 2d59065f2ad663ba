// Batched loops for an observing caller. Dynamo needs the machine to stop
// at path boundaries, not after every instruction: RunToYield runs the
// threaded micro-ops with the branch sink live until the sink calls Yield,
// RunTrace runs a recorded trace with the sink muted until execution
// leaves it, and RunMuted runs with the sink muted and only counts the
// redirects its events would have reported. All three keep Run's loop
// shape — one budget compare and one indirect call per instruction — and
// settle m.PC and m.Steps only when they return. None consults a fault
// hook or the legacy engine: a caller that injects faults bounds the run at
// the next injection step and delivers the fault with Inject.
package vm

// Yield asks the RunToYield loop in progress to return once the current
// micro-op completes. Sinks call it from OnBranch; outside RunToYield it
// has no effect.
func (m *Machine) Yield() {
	m.stopAt = 0
	m.yielded = true
}

// RunToYield executes like Run(maxSteps) on the predecoded engine with the
// branch sink live, and also returns nil, at the instruction boundary after
// the event, when the sink calls Yield. The machine may be resumed after
// any return but a fault's.
func (m *Machine) RunToYield(maxSteps int64) error {
	m.yielded = false
	u, limit, err := m.start(maxSteps)
	if u == nil {
		return err
	}
	m.stopAt = limit
	steps := m.Steps
	for {
		// Yield zeroes stopAt, so one compare covers the budget and the
		// sink's request.
		if steps >= m.stopAt {
			m.PC, m.Steps = int(u.pc), steps
			if m.yielded {
				return nil
			}
			return ErrStepLimit
		}
		steps++
		nu := u.fn(m, u)
		if nu == nil {
			m.Steps = steps
			return m.settleExec(int(u.pc), stop)
		}
		u = nu
	}
}

// TraceStep is one step of a recorded trace, lowered for RunTrace.
type TraceStep struct {
	// Next is the successor the step had when the trace was recorded.
	Next int32
	// Redirs counts the steps before this one whose recorded successor is
	// not their fall-through: the redirects their branch events would have
	// reported.
	Redirs int32
	// Elided belongs to the caller, which keeps a per-step prefix count
	// here (dynamo: optimizer-eliminated steps) so that a lowered trace is
	// one array. RunTrace does not read it.
	Elided int32
}

// TraceExit reports where RunTrace stopped.
type TraceExit struct {
	// Pos is the index of the step the run stopped at: the step that
	// completed the trace, diverged from it, halted or faulted, or, when
	// the budget ran out, the step not yet executed.
	Pos int
	// NextPC is where execution continues after a completion or a
	// divergence (Pos executed and the machine did not stop); -1 when the
	// machine halted, faulted or ran out of budget.
	NextPC int
	// Redirects counts the steps executed by this call whose control
	// transfer did not fall through — including a transfer whose target
	// faulted — exactly the redirects a live sink would have been told of.
	Redirects int64
	// Err is the delivered fault, if the step at Pos faulted.
	Err error
}

// RunTrace executes the trace tr from step pos, starting at m.PC, with the
// branch sink muted. After each step it compares the successor with the
// recorded one and stops at the first divergence, after the final step, on
// halt or fault, or when maxSteps (0 = no limit) would be exceeded. The
// caller must ensure the machine is not halted, m.PC is in range, and
// 0 <= pos < len(tr). Architectural effects are those of executing the
// same steps one at a time; only the branch events are withheld, and
// Redirects stands in for what they would have counted.
//
//netpathvet:dispatch
func (m *Machine) RunTrace(tr []TraceStep, pos int, maxSteps int64) TraceExit {
	from := pos
	steps := m.Steps
	// The steps this call may execute: the rest of the trace, cut short
	// where the budget runs out, so the loop carries no step count.
	code := tr
	if maxSteps > 0 {
		left := maxSteps - steps
		if left <= 0 {
			return TraceExit{Pos: pos, NextPC: -1}
		}
		if left < int64(len(tr)-pos) {
			code = tr[:pos+int(left)]
		}
	}
	sink := m.sink
	m.sink = nil
	u := &m.ops[m.PC]
	for ; pos < len(code); pos++ {
		nu := u.fn(m, u)
		if nu == nil {
			m.sink, m.Steps = sink, steps+int64(pos-from+1)
			x := TraceExit{Pos: pos, NextPC: -1, Redirects: int64(tr[pos].Redirs - tr[from].Redirs)}
			x.Err = m.settleExec(int(u.pc), stop)
			if f, ok := x.Err.(*Fault); ok && f.Kind == FaultBadPC && m.badTarget != int(u.pc)+1 {
				x.Redirects++
			}
			return x
		}
		if nu.pc != code[pos].Next || pos == len(tr)-1 {
			m.sink, m.PC, m.Steps = sink, int(nu.pc), steps+int64(pos-from+1)
			x := TraceExit{Pos: pos, NextPC: int(nu.pc), Redirects: int64(tr[pos].Redirs - tr[from].Redirs)}
			if nu.pc != u.pc+1 {
				x.Redirects++
			}
			return x
		}
		u = nu
	}
	// On trace, out of budget before step pos.
	m.sink, m.PC, m.Steps = sink, int(u.pc), steps+int64(pos-from)
	return TraceExit{Pos: pos, NextPC: -1, Redirects: int64(tr[pos].Redirs - tr[from].Redirs)}
}

// RunMuted executes like Run(maxSteps) on the predecoded engine with the
// branch sink muted: the loop of a run nobody observes but whose control
// transfers are still counted. redirects is the number of executed steps
// whose successor is not their fall-through — a halt is not one — plus,
// as in TraceExit.Redirects, a transfer whose target faulted;
// faultRedirect reports that the run ended on such a transfer, whose event
// a live sink would have received before the fault.
//
//netpathvet:dispatch
func (m *Machine) RunMuted(maxSteps int64) (redirects int64, faultRedirect bool, err error) {
	u, limit, err := m.start(maxSteps)
	if u == nil {
		return 0, false, err
	}
	sink := m.sink
	m.sink = nil
	steps := m.Steps
	for {
		if steps >= limit {
			m.sink, m.PC, m.Steps = sink, int(u.pc), steps
			return redirects, false, ErrStepLimit
		}
		steps++
		nu := u.fn(m, u)
		if nu == nil {
			m.sink, m.Steps = sink, steps
			err = m.settleExec(int(u.pc), stop)
			if f, ok := err.(*Fault); ok && f.Kind == FaultBadPC && m.badTarget != int(u.pc)+1 {
				return redirects + 1, true, err
			}
			return redirects, false, err
		}
		if nu.pc != u.pc+1 {
			redirects++
		}
		u = nu
	}
}
