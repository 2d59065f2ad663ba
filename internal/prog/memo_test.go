package prog_test

import (
	"testing"

	"netpath/internal/isa"
	"netpath/internal/prog"
	"netpath/internal/workload"
)

// TestMemoBounds: a stream of distinct quota-sized programs never pins more
// than the memo's word budget or entry cap, and the nine Figure 5 programs
// memoized after the stream all stay resident.
func TestMemoBounds(t *testing.T) {
	c := prog.NewMemo[error]()
	// Distinct program identities over one shared instruction array: the
	// memo charges each its footprint, the test allocates it once.
	big := make([]isa.Instr, 1<<16)
	for i := range 200 {
		c.Put(&prog.Program{Instrs: big}, nil)
		m, order, words := c.State()
		if words > prog.MemoMaxWords || len(m) > prog.MemoMaxEntries {
			t.Fatalf("after %d inserts: %d words in %d entries; bounds %d words, %d entries",
				i+1, words, len(m), prog.MemoMaxWords, prog.MemoMaxEntries)
		}
		if len(m) != order {
			t.Fatalf("map holds %d entries, FIFO order %d", len(m), order)
		}
	}

	var fig5 []*prog.Program
	for _, b := range workload.All() {
		p, err := b.Build(0.01)
		if err != nil {
			t.Fatal(err)
		}
		fig5 = append(fig5, p)
		c.Put(p, nil)
	}
	if len(fig5) != 9 {
		t.Fatalf("workload.All has %d benchmarks, want the nine of Figure 5", len(fig5))
	}
	m, _, words := c.State()
	for _, p := range fig5 {
		if _, ok := m[p]; !ok {
			t.Errorf("%s (%d words) evicted; memo holds %d words", p.Name, p.Footprint(), words)
		}
	}
}

// TestMemoFIFO: eviction drops the oldest entries first, and re-putting a
// resident program is an update that evicts nothing.
func TestMemoFIFO(t *testing.T) {
	c := prog.NewMemo[int]()
	half := make([]isa.Instr, prog.MemoMaxWords/2)
	a, b, d := &prog.Program{Instrs: half}, &prog.Program{Instrs: half}, &prog.Program{Instrs: half}
	c.Put(a, 1)
	c.Put(b, 2)
	c.Put(b, 3) // update, not an insert
	if m, _, words := c.State(); len(m) != 2 || m[b] != 3 || words != prog.MemoMaxWords {
		t.Fatalf("after update: %d entries, b=%d, %d words", len(m), m[b], words)
	}
	c.Put(d, 4)
	m, _, words := c.State()
	if _, ok := m[a]; ok {
		t.Fatal("oldest program survived an over-budget insert")
	}
	if len(m) != 2 || words != prog.MemoMaxWords {
		t.Fatalf("after eviction: %d entries, %d words", len(m), words)
	}
	calls := 0
	if got := c.Do(d, func(*prog.Program) int { calls++; return 9 }); got != 4 || calls != 0 {
		t.Fatalf("Do on a resident program = %d after %d computes; want the memoized 4", got, calls)
	}
}
