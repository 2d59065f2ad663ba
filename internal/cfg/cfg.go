// Package cfg builds intraprocedural control-flow graphs for the functions
// of a program and provides the standard analyses the verifier, the static
// predictor and the dataflow framework need: reverse postorder, dominators,
// back edges, and natural loops.
//
// Nodes are the basic blocks of one function plus two virtual nodes, Entry
// and Exit. A call instruction is treated as falling through to its
// continuation (the callee is a separate graph); returns and halts edge to
// Exit. Indirect jumps have no static successors; functions containing them
// are flagged, since their successor sets are incomplete.
package cfg

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"netpath/internal/isa"
	"netpath/internal/prog"
)

// Node is a CFG node index. 0 is Entry and 1 is Exit; real blocks follow.
type Node int

// Virtual node indices.
const (
	Entry Node = 0
	Exit  Node = 1
)

// Edge is a directed CFG edge.
type Edge struct {
	From, To Node
}

// Graph is the CFG of one function.
type Graph struct {
	Prog *prog.Program
	Func int // index into Prog.Funcs

	// BlockOf maps node (>= 2) to the program block index; -1 for Entry/Exit.
	// Real nodes follow program block order, so BlockOf[2:] ascends.
	BlockOf []int

	Succs [][]Node
	Preds [][]Node

	// HasIndirect reports that the function contains an indirect jump, so
	// the static successor sets are incomplete.
	HasIndirect bool

	rpo  []Node
	idom []Node
	num  []nodeNum
}

// nodeNum holds a node's place in the two orders the O(1) reachability and
// dominance queries read. rpo is its RPO index, -1 when Entry cannot reach
// it. pre and end number the dominator tree in DFS preorder: the subtree
// rooted at u holds exactly the preorder numbers [pre, end), so a
// dominates b iff b.pre lies in a's range. An unreachable node holds
// pre = end = -1, which lies in no range and spans none.
type nodeNum struct {
	rpo, pre, end int32
}

// Build constructs the CFG for function fi of p.
func Build(p *prog.Program, fi int) (*Graph, error) {
	if fi < 0 || fi >= len(p.Funcs) {
		return nil, fmt.Errorf("cfg: function index %d out of range", fi)
	}
	return build(p, fi, blockOfs(p)[fi]), nil
}

// BuildAll builds CFGs for every function of p. The blocks are bucketed by
// function once, so the whole program costs one pass over its blocks, not
// one per function.
func BuildAll(p *prog.Program) ([]*Graph, error) {
	lists := blockOfs(p)
	out := make([]*Graph, len(p.Funcs))
	for fi := range p.Funcs {
		out[fi] = build(p, fi, lists[fi])
	}
	return out, nil
}

// blockOfs returns each function's BlockOf list: the -1 placeholders of
// Entry and Exit, then the function's blocks in ascending order. One pass
// counts the blocks per function and one places them into lists carved
// out of a single array.
func blockOfs(p *prog.Program) [][]int {
	counts := make([]int, len(p.Funcs))
	for _, b := range p.Blocks {
		if b.Func >= 0 && b.Func < len(counts) {
			counts[b.Func]++
		}
	}
	lists, arr := make([][]int, len(p.Funcs)), make([]int, len(p.Blocks)+2*len(p.Funcs))
	for fi, c := range counts {
		lists[fi], arr = append(arr[:0:c+2], -1, -1), arr[c+2:]
	}
	for bi, b := range p.Blocks {
		if b.Func >= 0 && b.Func < len(lists) {
			lists[b.Func] = append(lists[b.Func], bi)
		}
	}
	return lists
}

// build builds the CFG of function fi, whose BlockOf list is blockOf.
func build(p *prog.Program, fi int, blockOf []int) *Graph {
	f := p.Funcs[fi]
	g := &Graph{Prog: p, Func: fi, BlockOf: blockOf}
	n := len(blockOf)
	entryNode, _ := g.NodeOf(p.BlockAt(f.Entry))
	edges := func(add func(from, to Node)) {
		add(Entry, entryNode)
		for node := Node(2); int(node) < n; node++ {
			b := p.Blocks[g.BlockOf[node]]
			term := p.Instrs[b.End-1]
			switch term.Op {
			case isa.Jmp:
				g.edgeToAddr(add, node, int(term.Target))
			case isa.Br, isa.BrI:
				g.edgeToAddr(add, node, int(term.Target))
				g.edgeToAddr(add, node, b.End) // fall-through
			case isa.Call, isa.CallInd:
				// Continuation after the call returns.
				if b.End < f.End {
					g.edgeToAddr(add, node, b.End)
				} else {
					add(node, Exit)
				}
			case isa.Ret, isa.Halt:
				add(node, Exit)
			case isa.JmpInd:
				g.HasIndirect = true
				// No static successors.
			}
		}
	}
	// Two passes over the terminators: the first counts each node's
	// successors and predecessors, the second appends the edges, in order,
	// to lists carved out of two shared arrays at those capacities, so
	// Build allocates per graph rather than per node.
	deg, e := make([]int32, 2*n), 0
	edges(func(from, to Node) {
		deg[from]++
		deg[n+int(to)]++
		e++
	})
	g.Succs, g.Preds = carve(deg[:n], e), carve(deg[n:], e)
	edges(func(from, to Node) {
		g.Succs[from] = append(g.Succs[from], to)
		g.Preds[to] = append(g.Preds[to], from)
	})
	g.computeRPO()
	g.computeDominators()
	g.numberDomTree()
	return g
}

// carve returns one empty list per count, each with exactly that capacity,
// out of one array of total elements; a zero count gets a nil list.
func carve(counts []int32, total int) [][]Node {
	lists, arr := make([][]Node, len(counts)), make([]Node, total)
	for i, c := range counts {
		if c > 0 {
			lists[i], arr = arr[:0:c], arr[c:]
		}
	}
	return lists
}

// NodeOf returns the node of program block bi, or (0, false) when bi is
// not a block of this function.
func (g *Graph) NodeOf(bi int) (Node, bool) {
	blocks := g.BlockOf[2:]
	if len(blocks) == 0 {
		return 0, false
	}
	// A validated function's blocks are contiguous, so bi's offset from
	// the first block is its index; otherwise search the ascending list.
	i := bi - blocks[0]
	if i < 0 || i >= len(blocks) || blocks[i] != bi {
		i = sort.SearchInts(blocks, bi)
		if i >= len(blocks) || blocks[i] != bi {
			return 0, false
		}
	}
	return Node(i + 2), true
}

func (g *Graph) edgeToAddr(add func(Node, Node), from Node, addr int) {
	bi := g.Prog.BlockAt(addr)
	if to, ok := g.NodeOf(bi); ok && g.Prog.Blocks[bi].Start == addr {
		add(from, to)
		return
	}
	// Target outside this function (validated programs only branch
	// intraprocedurally except via call/ret, so treat as function exit).
	add(from, Exit)
}

// NumNodes returns the node count including Entry and Exit.
func (g *Graph) NumNodes() int { return len(g.BlockOf) }

// Edges returns all edges sorted by (From, To).
func (g *Graph) Edges() []Edge {
	var es []Edge
	for from := range g.Succs {
		es = g.appendEdgesFrom(es, Node(from), nil)
	}
	return es
}

// appendEdgesFrom appends the edges leaving u whose head keep accepts (all
// of them when keep is nil), sorted by To. A node has a couple of
// successors at most, so sorting each node's edges in node order yields
// (From, To) order without a whole-graph sort.
func (g *Graph) appendEdgesFrom(es []Edge, u Node, keep func(v Node) bool) []Edge {
	start := len(es)
	for _, v := range g.Succs[u] {
		if keep == nil || keep(v) {
			es = append(es, Edge{u, v})
		}
	}
	slices.SortFunc(es[start:], func(a, b Edge) int { return cmp.Compare(a.To, b.To) })
	return es
}

// computeRPO lays the nodes Entry reaches out in reverse postorder and
// records each one's RPO index.
func (g *Graph) computeRPO() {
	n := g.NumNodes()
	g.num = make([]nodeNum, n)
	for i := range g.num {
		g.num[i] = nodeNum{rpo: -1, pre: -1, end: -1}
	}
	var post []Node
	var dfs func(Node)
	dfs = func(u Node) {
		g.num[u].rpo = 0 // seen; numbered below
		for _, v := range g.Succs[u] {
			if g.num[v].rpo < 0 {
				dfs(v)
			}
		}
		post = append(post, u)
	}
	dfs(Entry)
	g.rpo = make([]Node, 0, len(post))
	for i := len(post) - 1; i >= 0; i-- {
		g.num[post[i]].rpo = int32(len(g.rpo))
		g.rpo = append(g.rpo, post[i])
	}
}

// RPO returns the reverse postorder over nodes reachable from Entry.
func (g *Graph) RPO() []Node { return g.rpo }

// Reachable reports whether node u is reachable from Entry. It is O(1): a
// lookup of the RPO index Build recorded.
func (g *Graph) Reachable(u Node) bool {
	return u >= 0 && int(u) < len(g.num) && g.num[u].rpo >= 0
}

// computeDominators runs the Cooper–Harvey–Kennedy iterative algorithm.
func (g *Graph) computeDominators() {
	n := g.NumNodes()
	g.idom = make([]Node, n)
	for i := range g.idom {
		g.idom[i] = -1
	}
	g.idom[Entry] = Entry

	rpoIndex := func(u Node) int32 { return g.num[u].rpo }
	intersect := func(a, b Node) Node {
		for a != b {
			for rpoIndex(a) > rpoIndex(b) {
				a = g.idom[a]
			}
			for rpoIndex(b) > rpoIndex(a) {
				b = g.idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, u := range g.rpo {
			if u == Entry {
				continue
			}
			var newIdom Node = -1
			for _, p := range g.Preds[u] {
				if rpoIndex(p) < 0 || g.idom[p] < 0 {
					continue // unreachable or unprocessed
				}
				if newIdom < 0 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom >= 0 && g.idom[u] != newIdom {
				g.idom[u] = newIdom
				changed = true
			}
		}
	}
}

// numberDomTree numbers the dominator tree in preorder without building
// it. Every node's idom precedes it in RPO. So a backward sweep over the
// RPO sums subtree sizes (parked in pre), and a forward sweep gives each
// node the next free number in its idom's range. The idom's end is that
// cursor, and it comes to rest at the range's end once the last child has
// been numbered.
func (g *Graph) numberDomTree() {
	for _, u := range g.rpo {
		g.num[u].pre = 1
	}
	for i := len(g.rpo) - 1; i > 0; i-- {
		u := g.rpo[i]
		g.num[g.idom[u]].pre += g.num[u].pre
	}
	g.num[Entry].pre, g.num[Entry].end = 0, 1
	for _, u := range g.rpo[1:] {
		size, d := g.num[u].pre, &g.num[g.idom[u]]
		g.num[u].pre = d.end
		d.end += size
		g.num[u].end = g.num[u].pre + 1
	}
}

// Idom returns the immediate dominator of u (Entry's is Entry; unreachable
// nodes return -1).
func (g *Graph) Idom(u Node) Node { return g.idom[u] }

// Dominates reports whether a dominates b: both are reachable and b lies
// in a's dominator subtree. It is O(1), an interval test on the preorder
// numbering Build computed.
func (g *Graph) Dominates(a, b Node) bool {
	na, nb := g.num[a], g.num[b]
	return na.pre <= nb.pre && nb.pre < na.end
}

// BackEdges returns the edges u→v where v dominates u (natural-loop back
// edges), sorted by (From, To).
func (g *Graph) BackEdges() []Edge {
	var out []Edge
	for u := range g.Succs {
		from := Node(u)
		if g.Reachable(from) {
			out = g.appendEdgesFrom(out, from, func(v Node) bool { return g.Dominates(v, from) })
		}
	}
	return out
}

// Loop describes a natural loop.
type Loop struct {
	Head Node
	// Body contains the loop's nodes including Head, sorted.
	Body []Node
}

// NaturalLoops returns the natural loops of the graph, one per back-edge
// head (back edges sharing a head are merged), sorted by head.
func (g *Graph) NaturalLoops() []Loop {
	loops := []Loop{}
	// mark[u] == h+1 puts u in the body of the loop headed at h. Each
	// head is visited once, so no mark needs clearing.
	var mark []Node
	var stack []Node
	for h := range g.Preds {
		head := Node(h)
		var body []Node
		for _, tail := range g.Preds[head] {
			if !g.Reachable(tail) || !g.Dominates(head, tail) {
				continue
			}
			if body == nil {
				if mark == nil {
					mark = make([]Node, g.NumNodes())
				}
				mark[head] = head + 1
				body = append(body, head)
			}
			// Walk predecessors from the tail until the head.
			stack = append(stack[:0], tail)
			for len(stack) > 0 {
				u := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if mark[u] == head+1 {
					continue
				}
				mark[u] = head + 1
				body = append(body, u)
				stack = append(stack, g.Preds[u]...)
			}
		}
		if body != nil {
			slices.Sort(body)
			loops = append(loops, Loop{Head: head, Body: body})
		}
	}
	return loops
}
