// Package dataflow is a round-robin abstract-interpretation framework
// over the per-function CFGs built by internal/cfg, plus the translation
// validator that checks tier-1 fragments and tier-2 superblocks against the
// guest instruction sequences they claim to implement.
//
// The engine is generic over the lattice: a Problem[S] supplies the
// boundary/initial states, the per-block transfer function, the join, the
// branch-condition edge refinement and the widening that forces termination
// on lattices of unbounded height. Everything is deterministic: blocks are
// visited in reverse post order and the fixpoint loop is round-robin, so two
// runs over the same program produce identical solutions.
//
// One lattice ships on it, value ranges (interval.go). Analyze (facts.go)
// runs it over a whole program and distills per-instruction facts for the
// tooling (netasm analyze, pathdump check): which memory accesses are
// provably in bounds and which branches are statically decided. No run
// reads them. The validators (validate.go, validatefrag.go) share the
// interval transfer functions but never the whole-program solution: each
// re-proves a compiled superblock or fragment equivalent to its guest
// source from the program image alone.
package dataflow

import (
	"math/bits"

	"netpath/internal/cfg"
)

// Problem is one forward dataflow problem over a single function CFG. S is
// the per-node lattice state; values are treated as immutable by the engine
// (Transfer, Join, RefineEdge and Widen must return fresh or shared-safe
// values, never mutate their arguments in place).
type Problem[S any] interface {
	// Boundary is the in-state of the Entry node.
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
	// RefineEdge may strengthen the state flowing across the edge from→to,
	// e.g. narrowing a register's interval on the taken side of a
	// conditional branch. It must only ever lower the state (return
	// something ≤ out in the lattice order); raising it would be unsound.
	RefineEdge(g *cfg.Graph, from, to cfg.Node, out S) S
	// Widen bounds ascending chains. After a node's input has changed
	// widenAfter times, the engine replaces its freshly joined input with
	// Widen(prev, next), which must be an upper bound of both and must
	// stabilize in finitely many steps.
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
// The iteration order is reverse post order, with any nodes unreachable
// from Entry (indirect jump targets in graphs where cfg stops edge
// construction) appended in node order so extra-entry states still
// propagate. Each pass walks that order once, re-joining only the dirty
// positions: nodes a predecessor's Out changed since their last
// evaluation, or whose last evaluation widened. The loop repeats until a
// pass changes nothing, so a pass costs the nodes it re-joins, not the
// whole graph. Widen bounds the number of passes on infinite lattices.
func Solve[S any](g *cfg.Graph, p Problem[S]) *Solution[S] {
	n := g.NumNodes()
	sol := &Solution[S]{In: make([]S, n), Out: make([]S, n)}

	order := visitOrder(g)

	// visits tracks per-node input churn for widening.
	visits := make([]int, n)

	for v := range order {
		node := order[v]
		sol.In[node] = p.Init(g, node)
		sol.Out[node] = p.Transfer(g, node, sol.In[node])
	}
	sol.In[cfg.Entry] = p.Boundary(g)
	sol.Out[cfg.Entry] = p.Transfer(g, cfg.Entry, sol.In[cfg.Entry])

	// dirty holds the visit positions due a re-join. Every node with a
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
		if len(g.Preds[node]) > 0 {
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
			if node == cfg.Entry {
				in = p.Boundary(g)
			} else {
				in = p.Init(g, node)
			}
			for _, pred := range g.Preds[node] {
				in = p.Join(in, p.RefineEdge(g, pred, node, sol.Out[pred]))
			}
			if p.Equal(in, sol.In[node]) {
				continue
			}
			visits[node]++
			if visits[node] > widenAfter {
				dirty.set(i)
				in = p.Widen(sol.In[node], in)
				if p.Equal(in, sol.In[node]) {
					continue
				}
			}
			sol.In[node] = in
			sol.Out[node] = p.Transfer(g, node, in)
			for _, dep := range g.Succs[node] {
				dirty.set(int(pos[dep]))
			}
			changed = true
		}
		if !changed {
			return sol
		}
		// Safety valve: a correct Widen makes this unreachable, but a
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

// visitOrder returns the node iteration order: RPO, then any nodes the DFS
// from Entry never reached, in ascending node order, so states seeded by
// Init on unreachable-from-Entry nodes (indirect-jump targets) still flow.
func visitOrder(g *cfg.Graph) []cfg.Node {
	seen := make([]bool, g.NumNodes())
	order := make([]cfg.Node, 0, g.NumNodes())
	for _, n := range g.RPO() {
		seen[n] = true
		order = append(order, n)
	}
	for n := 0; n < g.NumNodes(); n++ {
		if !seen[n] {
			order = append(order, cfg.Node(n))
		}
	}
	return order
}
