package prog

// Memo internals, for the external tests.
const (
	MemoMaxEntries = memoMaxEntries
	MemoMaxWords   = memoMaxWords
)

func (c *Memo[V]) Put(p *Program, v V) { c.put(p, v) }

// State returns the memoized entries, the length of the FIFO order and the
// words the entries retain.
func (c *Memo[V]) State() (m map[*Program]V, order, words int) {
	return c.m, len(c.order), c.words
}
