// Static program verification. Verify inspects a program's structure and
// CFGs and reports malformations before any instruction runs, so loaders
// (dynamo, the cmd tools) can reject broken guest programs with a precise,
// structured error instead of relying on a runtime vm.Fault deep into the
// run.
//
// Issues carry a severity. Error-class issues describe programs that are
// structurally broken — executing them is guaranteed (or overwhelmingly
// likely) to fault or hang — and make Report.Err non-nil, which is what the
// dynamo load gate keys on. Warning-class issues describe suspicious but
// runnable shapes (unreachable blocks, callees that never return); they are
// reported but never reject a program, because the static view is
// incomplete in their presence: indirect jumps have no static successors,
// so "unreachable" may just mean "reached through a jump table".
package cfg

import (
	"fmt"
	"sort"
	"strings"

	"netpath/internal/isa"
	"netpath/internal/prog"
)

// Severity grades a verification issue.
type Severity uint8

// Severities.
const (
	// SeverityWarning marks a suspicious but runnable shape; warnings never
	// reject a program.
	SeverityWarning Severity = iota
	// SeverityError marks a structural malformation; any error-class issue
	// makes Report.Err non-nil and fails the dynamo load gate.
	SeverityError
)

// String names the severity.
func (s Severity) String() string {
	if s == SeverityError {
		return "error"
	}
	return "warning"
}

// Class identifies a malformation class.
type Class string

// Malformation classes.
const (
	// ClassStructure (error): the program fails prog.Validate — bad opcode,
	// target that is not a block start, broken function/block tiling, a
	// block without a control terminator, and so on.
	ClassStructure Class = "structure"
	// ClassCrossFunction (error): a jump or conditional branch targets an
	// address outside its own function. Only calls and returns may cross
	// function boundaries; a cross-function jump bypasses the call stack
	// and guarantees a later return underflow or stack imbalance.
	ClassCrossFunction Class = "cross-function-branch"
	// ClassFallthroughEnd (error): a call terminates its function's (and the
	// program's) last block, so the return continuation falls off the end of
	// the instruction array — a guaranteed bad-PC fault when the callee
	// returns.
	ClassFallthroughEnd Class = "fallthrough-end"
	// ClassReturnUnderflow (error): a reachable ret in the entry function of
	// a program that never calls it — executed with an empty call stack,
	// a guaranteed return-underflow fault.
	ClassReturnUnderflow Class = "return-underflow"
	// ClassInfiniteLoop (error): a natural loop with no exit edge and no
	// call or halt in its body — once entered, the machine can never leave
	// (an "obviously infinite counterless loop").
	ClassInfiniteLoop Class = "infinite-loop"
	// ClassUnreachable (warning): a block unreachable from its function's
	// entry. Suppressed for functions containing indirect jumps, whose
	// static successor sets are incomplete.
	ClassUnreachable Class = "unreachable-block"
	// ClassNoReturn (warning): a function that is a call target but has no
	// reachable ret or halt, so no call into it can ever return.
	ClassNoReturn Class = "no-return"
)

// Issue is one verification finding.
type Issue struct {
	Class    Class
	Severity Severity
	// Addr is the instruction or block address the issue anchors to.
	Addr int
	// Func names the containing function ("" for whole-program issues).
	Func string
	Msg  string
}

// String renders the issue one-per-line style: "error @12 (main): ...".
func (i Issue) String() string {
	fn := ""
	if i.Func != "" {
		fn = " (" + i.Func + ")"
	}
	return fmt.Sprintf("%s[%s] @%d%s: %s", i.Severity, i.Class, i.Addr, fn, i.Msg)
}

// Report is the outcome of verifying one program.
type Report struct {
	Program string
	Issues  []Issue
}

// Errors returns the error-severity issues.
func (r *Report) Errors() []Issue {
	var out []Issue
	for _, is := range r.Issues {
		if is.Severity == SeverityError {
			out = append(out, is)
		}
	}
	return out
}

// Warnings returns the warning-severity issues.
func (r *Report) Warnings() []Issue {
	var out []Issue
	for _, is := range r.Issues {
		if is.Severity == SeverityWarning {
			out = append(out, is)
		}
	}
	return out
}

// Err returns a *VerifyError carrying the error-class issues, or nil when
// the program has none (warnings alone never reject).
func (r *Report) Err() error {
	errs := r.Errors()
	if len(errs) == 0 {
		return nil
	}
	return &VerifyError{Program: r.Program, Issues: errs}
}

// String renders the full report, one issue per line.
func (r *Report) String() string {
	if len(r.Issues) == 0 {
		return fmt.Sprintf("%s: verify ok", r.Program)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d issue(s)\n", r.Program, len(r.Issues))
	for _, is := range r.Issues {
		b.WriteString("  " + is.String() + "\n")
	}
	return b.String()
}

// VerifyError is the structured rejection a failed verification produces.
// Loaders surface it with errors.As; Issues holds only error-class issues.
type VerifyError struct {
	Program string
	Issues  []Issue
}

// Error implements error.
func (e *VerifyError) Error() string {
	first := ""
	if len(e.Issues) > 0 {
		first = ": " + e.Issues[0].String()
	}
	return fmt.Sprintf("cfg: program %q failed verification with %d error(s)%s",
		e.Program, len(e.Issues), first)
}

// Verify statically checks p and reports every malformation found. It never
// panics, even on hand-assembled programs that bypass prog.Validate: a
// Validate failure is itself reported (ClassStructure) and ends the
// analysis, since the CFG builder assumes a well-tiled program.
func Verify(p *prog.Program) *Report { return verify(p, verifyFunc) }

// funcCheck reports the issues of function fi, whose graph is g.
type funcCheck func(p *prog.Program, fi int, g *Graph, r *Report, callTargets map[int]bool, hasCallInd bool)

// verify runs check over every function of p and canonicalizes the report.
// Tests pass a reference check built on brute-force graph queries.
func verify(p *prog.Program, check funcCheck) *Report {
	r := &Report{Program: p.Name}
	if err := p.Validate(); err != nil {
		r.Issues = append(r.Issues, Issue{
			Class: ClassStructure, Severity: SeverityError,
			Addr: 0, Msg: err.Error(),
		})
		return r
	}
	// hasCallInd: with indirect calls present, "is this function ever
	// called" cannot be answered statically, so the call-sensitive checks
	// (return underflow, no-return) degrade to warnings-off.
	hasCallInd := false
	callTargets := map[int]bool{}
	for _, in := range p.Instrs {
		switch in.Op {
		case isa.Call:
			callTargets[int(in.Target)] = true
		case isa.CallInd:
			hasCallInd = true
		}
	}

	graphs, _ := BuildAll(p) // never fails: every function index is in range
	for fi, g := range graphs {
		check(p, fi, g, r, callTargets, hasCallInd)
	}
	// Total order, then dedup. The per-function analyses can legitimately
	// derive the same finding twice (a shared-head loop reported once per
	// back edge, for one), and downstream golden tests and report diffing
	// need the issue list to be a canonical set, not an emission log.
	sort.SliceStable(r.Issues, func(i, j int) bool {
		a, b := &r.Issues[i], &r.Issues[j]
		if a.Addr != b.Addr {
			return a.Addr < b.Addr
		}
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		if a.Func != b.Func {
			return a.Func < b.Func
		}
		return a.Msg < b.Msg
	})
	dedup := r.Issues[:0]
	for i, is := range r.Issues {
		if i == 0 || is != r.Issues[i-1] {
			dedup = append(dedup, is)
		}
	}
	r.Issues = dedup
	return r
}

// VerifyProgram is the load-gate form: nil for clean programs (warnings
// allowed), a *VerifyError otherwise.
func VerifyProgram(p *prog.Program) error { return Verify(p).Err() }

func verifyFunc(p *prog.Program, fi int, g *Graph, r *Report, callTargets map[int]bool, hasCallInd bool) {
	f := p.Funcs[fi]
	add := func(class Class, sev Severity, addr int, format string, args ...any) {
		r.Issues = append(r.Issues, Issue{
			Class: class, Severity: sev, Addr: addr, Func: f.Name,
			Msg: fmt.Sprintf(format, args...),
		})
	}

	for addr := f.Entry; addr < f.End; addr++ {
		in := p.Instrs[addr]
		switch in.Op {
		case isa.Jmp, isa.Br, isa.BrI:
			t := int(in.Target)
			if t < f.Entry || t >= f.End {
				add(ClassCrossFunction, SeverityError, addr,
					"%v targets @%d outside its function [%d,%d); only call/ret may cross functions",
					in.Op, t, f.Entry, f.End)
			}
		case isa.Call, isa.CallInd:
			// The continuation after the callee returns is addr+1; if the
			// call ends the program's last block there is nowhere to return
			// to — a guaranteed bad-PC fault on the way back. A continuation
			// that lands in a *different* function is runnable but almost
			// certainly a layout mistake, so it only warns.
			if addr+1 >= p.Len() {
				add(ClassFallthroughEnd, SeverityError, addr,
					"%v at the program's last instruction: the return continuation falls off the end",
					in.Op)
			} else if addr+1 >= f.End {
				add(ClassFallthroughEnd, SeverityWarning, addr,
					"%v at the last instruction of %q: the return continuation falls into the next function",
					in.Op, f.Name)
			}
		}
	}

	// Return underflow: a ret executed with an empty call stack faults. The
	// only function statically known to run with an empty stack is the entry
	// function of a program that never calls it (and has no indirect calls,
	// which could target anything).
	entryFunc := p.FuncOf(p.Entry)
	if fi == entryFunc && !hasCallInd && !callTargets[f.Entry] {
		for node := 2; node < g.NumNodes(); node++ {
			bi := g.BlockOf[node]
			b := p.Blocks[bi]
			if p.Instrs[b.End-1].Op == isa.Ret && g.Reachable(Node(node)) {
				add(ClassReturnUnderflow, SeverityError, b.End-1,
					"reachable ret in entry function %q, which always runs with an empty call stack", f.Name)
			}
		}
	}

	// The remaining analyses trust the static successor sets, which are
	// incomplete when the function contains indirect jumps (no successors
	// are recorded for them): a block fed only by a jump table looks
	// unreachable, and a loop escaped through one looks closed.
	if g.HasIndirect {
		return
	}

	for node := 2; node < g.NumNodes(); node++ {
		if !g.Reachable(Node(node)) {
			b := p.Blocks[g.BlockOf[node]]
			add(ClassUnreachable, SeverityWarning, b.Start,
				"block [%d,%d) is unreachable from the function entry", b.Start, b.End)
		}
	}

	// Obviously-infinite counterless loops: a natural loop no edge leaves
	// and no call or halt interrupts. (ret and halt terminators edge to
	// Exit, which is outside every loop body, so they register as exits.)
	// inLoop[u] == i+1 puts u in the body of loop i.
	var inLoop []int32
	for i, l := range g.NaturalLoops() {
		if inLoop == nil {
			inLoop = make([]int32, g.NumNodes())
		}
		for _, u := range l.Body {
			inLoop[u] = int32(i + 1)
		}
		escapes := false
		for _, u := range l.Body {
			for _, v := range g.Succs[u] {
				if inLoop[v] != int32(i+1) {
					escapes = true
				}
			}
			if term := p.Instrs[p.Blocks[g.BlockOf[u]].End-1]; term.Op == isa.Call || term.Op == isa.CallInd {
				// A called function may halt or diverge on its own; the loop
				// is not *obviously* infinite.
				escapes = true
			}
		}
		if !escapes {
			head := p.Blocks[g.BlockOf[l.Head]]
			add(ClassInfiniteLoop, SeverityError, head.Start,
				"loop headed at @%d has no exit edge and no call/halt in its body: once entered it never terminates", head.Start)
		}
	}

	// A function other code calls but that can never return starves every
	// caller; suspicious, though legitimate for a callee that halts.
	if callTargets[f.Entry] {
		returns := false
		for node := 2; node < g.NumNodes(); node++ {
			if !g.Reachable(Node(node)) {
				continue
			}
			switch p.Instrs[p.Blocks[g.BlockOf[node]].End-1].Op {
			case isa.Ret, isa.Halt:
				returns = true
			}
		}
		if !returns {
			add(ClassNoReturn, SeverityWarning, f.Entry,
				"function %q is called but has no reachable ret or halt", f.Name)
		}
	}
}
