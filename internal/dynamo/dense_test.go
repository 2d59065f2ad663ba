package dynamo

import (
	"testing"

	"netpath/internal/path"
	"netpath/internal/vm"
)

// TestNETInternsNoPaths: NET counts path heads and never names a path, so
// it interns nothing — even with a path table far smaller than the
// program's path set, it reports no path evictions. With τ above the step
// count nothing is ever cached, so every path completes in the interpreter,
// and NET's boundary-only tracking must see exactly the completions a
// signature-building tracker sees.
func TestNETInternsNoPaths(t *testing.T) {
	p := buildBench(t, "gcc", 0.01)

	it := path.NewInterner()
	it.SetCapacity(4, nil)
	var want int64
	tr := path.NewTracker(it, p.Entry, func(path.Completed) { want++ })
	m := vm.New(p)
	m.SetSink(tr)
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if it.Evictions() == 0 {
		t.Fatal("reference interner evicted nothing; the path table is not small enough to show anything")
	}

	cfg := DefaultConfig(SchemeNET, 1<<40)
	cfg.MaxPaths = 4
	cfg.BailoutAfter = 0
	sys := New(p, cfg)
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.PathEvictions != 0 {
		t.Errorf("NET PathEvictions = %d, want 0 (NET interns no paths)", res.PathEvictions)
	}
	if sys.interner != nil {
		t.Error("NET System allocated a path interner")
	}
	if res.FragInstrs != 0 {
		t.Fatalf("τ above the step count cached %d instructions", res.FragInstrs)
	}
	if res.PathEvents != want {
		t.Errorf("NET PathEvents = %d, full tracker completed %d paths", res.PathEvents, want)
	}
}

// TestRestoredTraceEndingAtProgramEnd: a restored trace may record the
// program length as its last successor (Restore admits Next up to it). The
// fragment cache spans that address, so linking from the trace's end and
// walking its completion chain find no fragment there: no panic, no link.
func TestRestoredTraceEndingAtProgramEnd(t *testing.T) {
	p := buildNestedLoop(t, 50, 20)
	cold := New(p, replayConfig(SchemeNET, 5))
	if _, err := cold.Run(); err != nil {
		t.Fatal(err)
	}
	snap := cold.Snapshot("")
	if len(snap.Traces) == 0 {
		t.Fatal("cold run persisted no traces")
	}
	tr := &snap.Traces[0]
	if len(tr.Steps) < 2 {
		t.Fatalf("trace @%d has %d steps, want a chain-worthy trace", tr.Start, len(tr.Steps))
	}
	end := p.Len()
	tr.Steps[len(tr.Steps)-1].Next = end

	sys := New(p, replayConfig(SchemeNET, 5))
	if err := sys.Restore(snap); err != nil {
		t.Fatal(err)
	}
	fr := sys.cache.get(tr.Start)
	if fr == nil || fr.Steps[len(fr.Steps)-1].Next != end {
		t.Fatalf("trace @%d ending at %d was not restored as forged", tr.Start, end)
	}
	if sys.cache.get(end) != nil || sys.cache.get(-1) != nil || sys.cache.get(end+1) != nil {
		t.Fatal("cache lookup outside the program returned a fragment")
	}

	job := sys.snapshotChain(fr)
	if job == nil || len(job.bounds) != 1 || job.bounds[0].fr != fr {
		t.Errorf("completion chain from @%d ran past the program end: %+v", fr.Start, job)
	}

	sys.mode, sys.frag = modeFragment, fr
	sys.leaveFragment(end, true)
	if sys.res.LinkedJumps != 0 || sys.mode != modeInterp || sys.res.FragExits != 1 {
		t.Errorf("leaving to %d: linked %d, mode %v, exits %d; want an unlinked exit to the interpreter",
			end, sys.res.LinkedJumps, sys.mode, sys.res.FragExits)
	}

	// The forged successor only ever feeds the chain walk: executing the
	// restored cache still computes what plain interpretation computes.
	plain := vm.New(p)
	if err := plain.Run(0); err != nil {
		t.Fatal(err)
	}
	warm := New(p, replayConfig(SchemeNET, 5))
	if err := warm.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Run(); err != nil {
		t.Fatal(err)
	}
	if warm.Machine().Steps != plain.Steps || warm.Machine().Reg != plain.Reg {
		t.Error("warm run from the forged trace diverged from plain interpretation")
	}
}

// TestHeadTableIndexGrows: the address index grows to cover any head it is
// asked to count, and eviction and reset clear the entries they free.
func TestHeadTableIndexGrows(t *testing.T) {
	ht := newHeadTable(2)
	ht.add(3, 1)
	if len(ht.index) != 4 {
		t.Fatalf("index length %d after counting head 3, want 4", len(ht.index))
	}
	ht.add(1000, 2)
	if len(ht.index) <= 1000 {
		t.Fatalf("index length %d after counting head 1000", len(ht.index))
	}
	if i, ok := ht.slot(3); !ok || ht.vals[i] != 1 {
		t.Error("head 3 lost its counter when the index grew")
	}
	if i, ok := ht.slot(1000); !ok || ht.vals[i] != 2 {
		t.Error("head 1000 not counted")
	}
	if _, ok := ht.slot(5000); ok {
		t.Error("head beyond the index reported a counter")
	}

	ht.add(7, 1) // full: CLOCK recycles a slot
	live := 0
	for _, k := range []int{3, 7, 1000} {
		if _, ok := ht.slot(k); ok {
			live++
		}
	}
	if live != 2 || ht.evictions != 1 {
		t.Errorf("after one eviction: %d live heads, %d evictions; want 2, 1", live, ht.evictions)
	}

	ht.reset()
	for _, k := range []int{3, 7, 1000} {
		if _, ok := ht.slot(k); ok {
			t.Errorf("head %d survived reset", k)
		}
	}
	if ht.len() != 0 || ht.evictions != 0 || ht.add(1000, 1) != 1 {
		t.Error("reset table does not count from zero")
	}
}
