package balllarus

import (
	"fmt"
	"sort"

	"netpath/internal/cfg"
	"netpath/internal/isa"
	"netpath/internal/prog"
	"netpath/internal/vm"
)

// Runtime executes Ball–Larus path profiling over a live VM event stream,
// maintaining one instrumentation frame per active procedure invocation.
//
// Two modes exercise the two instrumentation strategies of the original
// algorithm:
//
//   - naive: every DAG edge updates the path register (r += Val(e));
//   - optimized: only chords update it (r += Inc(e)), the spanning-tree
//     placement.
//
// Both must produce identical path counts; the test suite verifies this,
// and the Ops counters expose the instrumentation-cost difference.
type Runtime struct {
	Prog *prog.Program
	// Optimized selects chord-only instrumentation.
	Optimized bool

	// Numberings per function; nil entries mark functions BL cannot handle
	// (indirect jumps etc.) — their execution is tracked but not counted.
	Numberings []*Numbering
	// Counts[fi][pathNum] is the execution count of that function's path.
	Counts []map[int64]int64
	// RegisterOps counts path-register updates (r += ...) actually
	// performed; CountOps counts path-table updates.
	RegisterOps int64
	CountOps    int64

	graphs []*cfg.Graph
	stack  []blFrame
}

type blFrame struct {
	fn   int
	node cfg.Node
	r    int64
	ok   bool // function has a numbering
}

// NewRuntime builds CFGs and numberings for every function of p. Functions
// that Ball–Larus cannot number are skipped (recorded as nil) rather than
// failing the whole program.
func NewRuntime(p *prog.Program, optimized bool) (*Runtime, error) {
	graphs, err := cfg.BuildAll(p)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{
		Prog:       p,
		Optimized:  optimized,
		Numberings: make([]*Numbering, len(p.Funcs)),
		Counts:     make([]map[int64]int64, len(p.Funcs)),
		graphs:     graphs,
	}
	for fi, g := range graphs {
		num, err := New(g)
		if err != nil {
			continue // unprofilable function: leave nil
		}
		rt.Numberings[fi] = num
		rt.Counts[fi] = make(map[int64]int64)
	}
	rt.pushFrame(p.FuncOf(p.Entry), p.Entry)
	return rt, nil
}

func (rt *Runtime) pushFrame(fn, addr int) {
	fr := blFrame{fn: fn, ok: rt.Numberings[fn] != nil}
	if fr.ok {
		g := rt.graphs[fn]
		fr.node, _ = g.NodeOf(rt.Prog.BlockAt(addr))
		// Take the Entry→first edge.
		rt.takeEdge(&fr, cfg.Entry, fr.node)
	}
	rt.stack = append(rt.stack, fr)
}

// inc returns the runtime register increment for DAG edge id.
func (rt *Runtime) inc(num *Numbering, id EdgeID) int64 {
	e := num.Edges[id]
	if rt.Optimized {
		if e.Tree {
			return 0
		}
		rt.RegisterOps++
		return e.Inc
	}
	rt.RegisterOps++
	return e.Val
}

// takeEdge applies the register update for traversing from→to inside fr.
func (rt *Runtime) takeEdge(fr *blFrame, from, to cfg.Node) {
	num := rt.Numberings[fr.fn]
	if id, ok := num.LookupEdge(from, to); ok {
		fr.r += rt.inc(num, id)
		fr.node = to
		return
	}
	if toExit, fromEntry, ok := num.LookupBackEdge(from, to); ok {
		fr.r += rt.inc(num, toExit)
		rt.count(fr.fn, fr.r)
		fr.r = rt.inc(num, fromEntry)
		fr.node = to
		return
	}
	// Unknown edge (should not happen on validated programs).
	fr.node = to
}

func (rt *Runtime) count(fn int, pathNum int64) {
	rt.Counts[fn][pathNum]++
	rt.CountOps++
}

// closeFrame counts the in-flight path ending at Exit and pops the frame.
func (rt *Runtime) closeFrame() {
	fr := &rt.stack[len(rt.stack)-1]
	if fr.ok {
		num := rt.Numberings[fr.fn]
		if id, ok := num.LookupEdge(fr.node, cfg.Exit); ok {
			fr.r += rt.inc(num, id)
			rt.count(fr.fn, fr.r)
		}
	}
	rt.stack = rt.stack[:len(rt.stack)-1]
}

// OnBranch consumes one VM branch event; install it as (or call it from)
// the machine listener.
func (rt *Runtime) OnBranch(ev vm.BranchEvent) {
	if len(rt.stack) == 0 {
		return
	}
	switch ev.Kind {
	case isa.KindCall, isa.KindCallInd:
		// Caller's call edge is taken when the callee returns; just push.
		rt.pushFrame(rt.Prog.FuncOf(ev.Target), ev.Target)
		return
	case isa.KindReturn:
		rt.closeFrame()
		if len(rt.stack) == 0 {
			return
		}
		// Resume the caller: take the call-continuation edge.
		fr := &rt.stack[len(rt.stack)-1]
		if fr.ok {
			g := rt.graphs[fr.fn]
			to, _ := g.NodeOf(rt.Prog.BlockAt(ev.Target))
			rt.takeEdge(fr, fr.node, to)
		}
		return
	}
	// Intraprocedural transfer (cond, jump, indirect).
	fr := &rt.stack[len(rt.stack)-1]
	if !fr.ok {
		return
	}
	g := rt.graphs[fr.fn]
	bi := rt.Prog.BlockAt(ev.Target)
	to, in := g.NodeOf(bi)
	if !in {
		return // cross-function jump; not representable intraprocedurally
	}
	rt.takeEdge(fr, fr.node, to)
}

// Finish counts the path in flight in the innermost frame after the program
// halts (the frame reached Halt, which edges to Exit).
func (rt *Runtime) Finish() {
	if len(rt.stack) > 0 {
		rt.closeFrame()
	}
	// Outer frames never returned; their partial paths are not counted,
	// matching an offline profiler reading counters at program end.
	rt.stack = nil
}

// TotalCount sums all path counts of function fi.
func (rt *Runtime) TotalCount(fi int) int64 {
	var s int64
	for _, c := range rt.Counts[fi] {
		s += c
	}
	return s
}

// Profile runs p to completion under a fresh runtime and returns it.
func Profile(p *prog.Program, optimized bool, maxSteps int64) (*Runtime, error) {
	rt, err := NewRuntime(p, optimized)
	if err != nil {
		return nil, err
	}
	m := vm.New(p)
	m.SetSink(rt)
	if err := m.Run(maxSteps); err != nil && err != vm.ErrStepLimit {
		return nil, err
	}
	rt.Finish()
	return rt, nil
}

// DecodePath maps a path number of function fi back to its block-node
// sequence (Entry and Exit excluded), inverting the numbering: at each node
// take the out-edge with the largest Val not exceeding the remainder.
func (rt *Runtime) DecodePath(fi int, pathNum int64) ([]cfg.Node, error) {
	num := rt.Numberings[fi]
	if num == nil {
		return nil, fmt.Errorf("balllarus: function %d has no numbering", fi)
	}
	if pathNum < 0 || pathNum >= num.NumPaths {
		return nil, fmt.Errorf("balllarus: path number %d out of range [0,%d)", pathNum, num.NumPaths)
	}
	succs := make(map[cfg.Node][]DAGEdge)
	for _, e := range num.Edges {
		succs[e.From] = append(succs[e.From], e)
	}
	for _, es := range succs {
		sort.Slice(es, func(i, j int) bool { return es[i].Val < es[j].Val })
	}
	var out []cfg.Node
	u, rem := cfg.Entry, pathNum
	for u != cfg.Exit {
		es := succs[u]
		if len(es) == 0 {
			return nil, fmt.Errorf("balllarus: decode stuck at node %d", u)
		}
		k := len(es) - 1
		for k > 0 && es[k].Val > rem {
			k--
		}
		rem -= es[k].Val
		u = es[k].To
		if u != cfg.Exit {
			out = append(out, u)
		}
		if len(out) > len(num.Edges)+2 {
			return nil, fmt.Errorf("balllarus: decode did not terminate")
		}
	}
	if rem != 0 {
		return nil, fmt.Errorf("balllarus: decode residue %d", rem)
	}
	return out, nil
}
