package dynamo

import (
	"math"
	"testing"

	"netpath/internal/isa"
	"netpath/internal/path"
	"netpath/internal/prog"
	"netpath/internal/randprog"
	"netpath/internal/vm"
	"netpath/internal/workload"
)

// TestPathProfileOpsMatchBranchEvents checks PathProfile's profiling
// counters against the branch events of a plain vm.Run of the same
// program. With τ out of reach and bail-out and the evict governor off,
// the whole run is interpreted and profiled, so every conditional branch
// is one bit shift, every indirect jump or call one signature append, and
// every path a path.Tracker completes one path-table update. The tracker's
// trailing partial path, which Finish would flush, is not counted: the
// engine never flushes it.
func TestPathProfileOpsMatchBranchEvents(t *testing.T) {
	var progs []*prog.Program
	for _, b := range workload.All() {
		p, err := b.Build(0.02)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	for seed := int64(1); seed <= 50; seed++ {
		progs = append(progs, randprog.MustGenerate(seed, randprog.Options{}))
	}
	for _, p := range progs {
		var cond, ind, paths int64
		m := vm.New(p)
		tr := path.NewTracker(nil, m.PC, func(path.Completed) { paths++ })
		m.SetSink(vm.Listener(func(ev vm.BranchEvent) {
			switch ev.Kind {
			case isa.KindCond:
				cond++
			case isa.KindIndirect, isa.KindCallInd:
				ind++
			}
			tr.OnBranch(ev)
		}))
		if err := m.Run(0); err != nil {
			t.Fatalf("%s: plain run: %v", p.Name, err)
		}

		cfg := DefaultConfig(SchemePathProfile, math.MaxInt64)
		cfg.BailoutAfter = 0
		cfg.GovernorEvictLimit = -1
		res, err := New(p, cfg).Run()
		if err != nil {
			t.Fatalf("%s: dynamo run: %v", p.Name, err)
		}
		if res.Steps != m.Steps || res.InterpInstrs != m.Steps {
			t.Fatalf("%s: %d steps, %d interpreted; plain run took %d",
				p.Name, res.Steps, res.InterpInstrs, m.Steps)
		}
		if res.BitShifts != cond {
			t.Errorf("%s: BitShifts = %d, want %d conditional branch events", p.Name, res.BitShifts, cond)
		}
		if res.IndAppends != ind {
			t.Errorf("%s: IndAppends = %d, want %d indirect branch events", p.Name, res.IndAppends, ind)
		}
		if res.PathTableUpdates != paths {
			t.Errorf("%s: PathTableUpdates = %d, want %d completed paths", p.Name, res.PathTableUpdates, paths)
		}
	}
}
