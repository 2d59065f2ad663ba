package dynamo

import (
	"testing"

	"netpath/internal/isa"
	"netpath/internal/prog"
	"netpath/internal/workload"
)

// TestProgMemoBounds: a stream of distinct quota-sized programs never pins
// more than the memo's word budget or entry cap, and the nine Figure 5
// programs memoized after the stream all stay resident.
func TestProgMemoBounds(t *testing.T) {
	c := newProgMemo[error]()
	// Distinct program identities over one shared instruction array: the
	// memo charges each its footprint, the test allocates it once.
	big := make([]isa.Instr, 1<<16)
	for i := range 200 {
		c.put(&prog.Program{Instrs: big}, nil)
		if c.words > memoMaxWords || len(c.m) > memoMaxEntries {
			t.Fatalf("after %d inserts: %d words in %d entries; bounds %d words, %d entries",
				i+1, c.words, len(c.m), memoMaxWords, memoMaxEntries)
		}
		if len(c.m) != len(c.order) {
			t.Fatalf("map holds %d entries, FIFO order %d", len(c.m), len(c.order))
		}
	}

	var fig5 []*prog.Program
	for _, b := range workload.All() {
		p, err := b.Build(0.01)
		if err != nil {
			t.Fatal(err)
		}
		fig5 = append(fig5, p)
		c.put(p, nil)
	}
	if len(fig5) != 9 {
		t.Fatalf("workload.All has %d benchmarks, want the nine of Figure 5", len(fig5))
	}
	for _, p := range fig5 {
		if _, ok := c.m[p]; !ok {
			t.Errorf("%s (%d words) evicted; memo holds %d words", p.Name, p.Footprint(), c.words)
		}
	}
}

// TestProgMemoFIFO: eviction drops the oldest entries first, and re-putting
// a resident program is an update that evicts nothing.
func TestProgMemoFIFO(t *testing.T) {
	c := newProgMemo[int]()
	half := make([]isa.Instr, memoMaxWords/2)
	a, b, d := &prog.Program{Instrs: half}, &prog.Program{Instrs: half}, &prog.Program{Instrs: half}
	c.put(a, 1)
	c.put(b, 2)
	c.put(b, 3) // update, not an insert
	if len(c.m) != 2 || c.m[b] != 3 || c.words != memoMaxWords {
		t.Fatalf("after update: %d entries, b=%d, %d words", len(c.m), c.m[b], c.words)
	}
	c.put(d, 4)
	if _, ok := c.m[a]; ok {
		t.Fatal("oldest program survived an over-budget insert")
	}
	if len(c.m) != 2 || c.words != memoMaxWords {
		t.Fatalf("after eviction: %d entries, %d words", len(c.m), c.words)
	}
	calls := 0
	if got := c.do(d, func(*prog.Program) int { calls++; return 9 }); got != 4 || calls != 0 {
		t.Fatalf("do on a resident program = %d after %d computes; want the memoized 4", got, calls)
	}
}
