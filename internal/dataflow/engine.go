// Package dataflow is a round-robin abstract-interpretation framework
// over the per-function CFGs built by internal/cfg, plus the translation
// validator that checks tier-1 fragments and tier-2 superblocks against the
// guest instruction sequences they claim to implement.
//
// The engine is generic over the lattice: a Problem[S] supplies the
// direction, boundary/initial states, the per-block transfer function, and
// the join. Optional interfaces refine edge states (branch-condition
// narrowing) and widen loop-carried states to force termination on lattices
// of unbounded height (intervals). Everything is deterministic: blocks are
// visited in reverse post order (post order for backward problems) and the
// fixpoint loop is round-robin, so two runs over the same program produce
// identical solutions.
//
// Four lattices ship with the package: value ranges (interval.go), constant
// propagation (constprop.go), liveness (liveness.go) and call-graph stack
// depth (stackdepth.go). Analyze (facts.go) runs them over a whole program
// and distills the per-instruction facts the rest of the system consumes:
// which memory accesses are provably in bounds and which branches are
// statically decided. validate.go uses the same facts to re-prove each
// compiled superblock and fragment equivalent to its guest source.
package dataflow

import (
	"math/bits"

	"netpath/internal/cfg"
)

// Direction says which way a problem's facts flow.
type Direction int

const (
	// Forward problems propagate facts from Entry toward Exit.
	Forward Direction = iota
	// Backward problems propagate facts from Exit toward Entry.
	Backward
)

// Problem is one dataflow problem over a single function CFG. S is the
// per-node lattice state; values are treated as immutable by the engine
// (Transfer and Join must return fresh or shared-safe values, never mutate
// their arguments in place).
type Problem[S any] interface {
	// Direction returns Forward or Backward.
	Direction() Direction
	// Boundary is the state at the boundary node: the in-state of Entry for
	// forward problems, the out-state of Exit for backward ones.
	Boundary(g *cfg.Graph) S
	// Init is the initial (pre-join) state contributed to node n before any
	// edge state arrives. For most problems this is the lattice bottom;
	// range analysis uses it to model extra entries (indirect-jump targets,
	// cross-function fall-ins) that the CFG has no edges for.
	Init(g *cfg.Graph, n cfg.Node) S
	// Transfer applies node n's effect to its input state.
	Transfer(g *cfg.Graph, n cfg.Node, in S) S
	// Join combines two states flowing into the same node.
	Join(a, b S) S
	// Equal reports whether two states are indistinguishable; the fixpoint
	// loop stops when no node's input changes.
	Equal(a, b S) bool
}

// EdgeRefiner is an optional Problem extension: RefineEdge may strengthen
// the state flowing across a specific edge, e.g. narrowing a register's
// interval on the taken side of a conditional branch. It must only ever
// lower the state (return something ≤ out in the lattice order) — raising
// it would be unsound.
type EdgeRefiner[S any] interface {
	RefineEdge(g *cfg.Graph, from, to cfg.Node, out S) S
}

// Widener is an optional Problem extension for lattices with unbounded
// ascending chains. After a node has been revisited widenAfter times, the
// engine replaces its freshly joined input with Widen(prev, next), which
// must be an upper bound of both and must stabilize in finitely many steps.
type Widener[S any] interface {
	Widen(prev, next S) S
}

// widenAfter is the number of times a node's input may change before the
// engine starts widening it. Small enough to terminate fast, large enough
// to let short chains (init; bound-check; increment) settle exactly first.
const widenAfter = 4

// Solution holds the fixpoint of a problem: the state flowing into and out
// of every CFG node, indexed by cfg.Node.
type Solution[S any] struct {
	In  []S
	Out []S
	// Rounds is the number of passes the fixpoint loop took; exported for
	// tests that pin termination behavior.
	Rounds int
}

// Solve runs p to a fixpoint over g and returns the per-node solution.
//
// The iteration order is reverse post order for forward problems and post
// order for backward ones, with any nodes unreachable from Entry (indirect
// jump targets in graphs where cfg stops edge construction) appended in
// node order so extra-entry states still propagate. Each pass walks that
// order once, re-joining only the dirty positions: nodes a flow
// predecessor's Out changed since their last evaluation, or whose last
// evaluation widened. The loop repeats until a pass changes nothing, so a
// pass costs the nodes it re-joins, not the whole graph. Widener bounds
// the number of passes on infinite lattices.
func Solve[S any](g *cfg.Graph, p Problem[S]) *Solution[S] {
	n := g.NumNodes()
	sol := &Solution[S]{In: make([]S, n), Out: make([]S, n)}

	order := visitOrder(g, p.Direction())

	refiner, hasRefine := p.(EdgeRefiner[S])
	widener, hasWiden := p.(Widener[S])

	// flows returns the nodes whose states feed node v, and deps the nodes
	// v's state feeds, honoring direction.
	flows, deps := g.Preds, g.Succs
	boundaryNode := cfg.Entry
	if p.Direction() == Backward {
		flows, deps = g.Succs, g.Preds
		boundaryNode = cfg.Exit
	}

	// visits tracks per-node input churn for widening.
	visits := make([]int, n)

	for v := range order {
		node := order[v]
		sol.In[node] = p.Init(g, node)
		sol.Out[node] = p.Transfer(g, node, sol.In[node])
	}
	sol.In[boundaryNode] = p.Boundary(g)
	sol.Out[boundaryNode] = p.Transfer(g, boundaryNode, sol.In[boundaryNode])

	// dirty holds the visit positions due a re-join. Every node with a flow
	// predecessor starts dirty. A change to Out[v] marks v's dependents; a
	// widened evaluation marks its own node again, since Widen is not
	// idempotent and the node must re-join unchanged inputs. A mark at or
	// before the pass's cursor waits for the next pass, so nodes are
	// evaluated in exactly the order a full round-robin sweep that skips
	// clean nodes would evaluate them. Skipping a clean node is exact: its
	// join would recompute the input it already holds.
	pos := make([]int32, n)
	dirty := newBitset(n)
	for i, node := range order {
		pos[node] = int32(i)
		if len(flows[node]) > 0 {
			dirty.set(i)
		}
	}

	for {
		sol.Rounds++
		changed := false
		for i := dirty.next(0); i >= 0; i = dirty.next(i + 1) {
			dirty.clear(i)
			node := order[i]
			var in S
			if node == boundaryNode {
				in = p.Boundary(g)
			} else {
				in = p.Init(g, node)
			}
			for _, pred := range flows[node] {
				out := sol.Out[pred]
				if hasRefine {
					if p.Direction() == Forward {
						out = refiner.RefineEdge(g, pred, node, out)
					} else {
						out = refiner.RefineEdge(g, node, pred, out)
					}
				}
				in = p.Join(in, out)
			}
			if p.Equal(in, sol.In[node]) {
				continue
			}
			visits[node]++
			if hasWiden && visits[node] > widenAfter {
				dirty.set(i)
				in = widener.Widen(sol.In[node], in)
				if p.Equal(in, sol.In[node]) {
					continue
				}
			}
			sol.In[node] = in
			sol.Out[node] = p.Transfer(g, node, in)
			for _, dep := range deps[node] {
				dirty.set(int(pos[dep]))
			}
			changed = true
		}
		if !changed {
			return sol
		}
		// Safety valve: a correct Widener makes this unreachable, but a
		// buggy lattice must degrade to "analysis gave up", never hang the
		// compiler. 4*n+64 rounds is far beyond any monotone fixpoint here.
		if sol.Rounds > 4*n+64 {
			return sol
		}
	}
}

// bitset is a fixed-size set of small non-negative integers.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)   { b[uint(i)/64] |= 1 << (uint(i) % 64) }
func (b bitset) clear(i int) { b[uint(i)/64] &^= 1 << (uint(i) % 64) }

// next returns the smallest member ≥ i, or -1 when there is none.
func (b bitset) next(i int) int {
	w := int(uint(i) / 64)
	if w >= len(b) {
		return -1
	}
	if m := b[w] >> (uint(i) % 64); m != 0 {
		return i + bits.TrailingZeros64(m)
	}
	for w++; w < len(b); w++ {
		if b[w] != 0 {
			return w*64 + bits.TrailingZeros64(b[w])
		}
	}
	return -1
}

// visitOrder returns the node iteration order for a direction: RPO
// (forward) or post order (backward), then any nodes the DFS from Entry
// never reached, in ascending node order, so states seeded by Init on
// unreachable-from-Entry nodes (indirect-jump targets) still flow.
func visitOrder(g *cfg.Graph, d Direction) []cfg.Node {
	rpo := g.RPO()
	seen := make([]bool, g.NumNodes())
	order := make([]cfg.Node, 0, g.NumNodes())
	if d == Forward {
		for _, n := range rpo {
			seen[n] = true
			order = append(order, n)
		}
	} else {
		for i := len(rpo) - 1; i >= 0; i-- {
			seen[rpo[i]] = true
			order = append(order, rpo[i])
		}
	}
	for n := 0; n < g.NumNodes(); n++ {
		if !seen[n] {
			order = append(order, cfg.Node(n))
		}
	}
	return order
}
