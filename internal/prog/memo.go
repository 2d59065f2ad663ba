package prog

import "sync"

// Bounds of a Memo. A resident server loads an endless stream of fresh
// programs, and an unbounded memo would both leak and pin every submitted
// program against garbage collection. An entry bound alone is not enough:
// 4096 quota-sized programs pin gigabytes, so a memo is bounded by the
// words its programs retain (Footprint) as well. The nine benchmarks of an
// experiment grid retain about 105K words, far inside both bounds.
const (
	memoMaxEntries = 4096
	memoMaxWords   = 1 << 21
)

// Memo memoizes a per-program result by program identity, such as the
// verifier's verdict. Programs are immutable after Freeze, so pointer
// identity is a sound key and staleness is impossible.
// Eviction is FIFO: crossing either bound drops the oldest entries until
// both hold again, so a burst of fresh programs evicts the burst's
// predecessors rather than a grid's whole working set.
type Memo[V any] struct {
	mu    sync.Mutex
	m     map[*Program]V
	order []*Program // insertion order, for FIFO eviction
	words int        // sum of Footprint over order
}

// NewMemo returns an empty memo.
func NewMemo[V any]() *Memo[V] {
	return &Memo[V]{m: make(map[*Program]V)}
}

// Do returns the memoized result for p, computing it with f (outside the
// lock) on a miss. Two racing misses both compute; the results agree.
func (c *Memo[V]) Do(p *Program, f func(*Program) V) V {
	c.mu.Lock()
	v, ok := c.m[p]
	c.mu.Unlock()
	if ok {
		return v
	}
	v = f(p)
	c.put(p, v)
	return v
}

// put records v for p and evicts the oldest entries until both bounds hold.
// The newest entry always stays, so even an oversized program is memoized
// until the next insert.
func (c *Memo[V]) put(p *Program, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[p]; ok {
		c.m[p] = v
		return
	}
	c.m[p] = v
	c.order = append(c.order, p)
	c.words += p.Footprint()
	for len(c.order) > 1 && (len(c.order) > memoMaxEntries || c.words > memoMaxWords) {
		old := c.order[0]
		c.order[0] = nil // release the program to the collector
		c.order = c.order[1:]
		delete(c.m, old)
		c.words -= old.Footprint()
	}
}
