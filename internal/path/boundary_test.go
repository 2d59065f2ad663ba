package path

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"netpath/internal/prog"
	"netpath/internal/randprog"
	"netpath/internal/vm"
	"netpath/internal/workload"
)

// lockstep feeds one branch event stream to a full tracker and a
// boundary-only tracker (nil interner) and checks, event by event, that
// both complete the same paths: same reason, same branch count, same next
// start. Only the full tracker names its paths.
type lockstep struct {
	t           *testing.T
	name        string
	full, bound *Tracker
	fullDone    []Completed
	boundDone   []Completed
	events      int
	completions int
	failed      bool
}

func newLockstep(t *testing.T, name string, entry, maxBranches int) *lockstep {
	l := &lockstep{t: t, name: name}
	l.full = NewTracker(NewInterner(), entry, func(c Completed) { l.fullDone = append(l.fullDone, c) })
	l.bound = NewTracker(nil, entry, func(c Completed) { l.boundDone = append(l.boundDone, c) })
	l.full.MaxBranches = maxBranches
	l.bound.MaxBranches = maxBranches
	return l
}

func (l *lockstep) OnBranch(ev vm.BranchEvent) {
	l.full.OnBranch(ev)
	l.bound.OnBranch(ev)
	l.events++
	l.check()
}

// check compares the completions both trackers reported since the last
// check, then drops them.
func (l *lockstep) check() {
	if l.failed {
		return
	}
	if len(l.fullDone) != len(l.boundDone) {
		l.fail("full tracker completed %d paths, boundary-only %d", len(l.fullDone), len(l.boundDone))
		return
	}
	for i, f := range l.fullDone {
		b := l.boundDone[i]
		if f.Reason != b.Reason || f.Branches != b.Branches {
			l.fail("completion %d: full (%v, %d branches), boundary-only (%v, %d branches)",
				l.completions+i, f.Reason, f.Branches, b.Reason, b.Branches)
			return
		}
		if f.ID == None || b.ID != None {
			l.fail("completion %d: full ID %d, boundary-only ID %d (want interned, None)", l.completions+i, f.ID, b.ID)
			return
		}
	}
	if fs, bs := l.full.CurrentStart(), l.bound.CurrentStart(); fs != bs {
		l.fail("next start: full %d, boundary-only %d", fs, bs)
		return
	}
	l.completions += len(l.fullDone)
	l.fullDone, l.boundDone = l.fullDone[:0], l.boundDone[:0]
}

func (l *lockstep) fail(format string, args ...any) {
	l.failed = true
	l.t.Errorf("%s: after %d events: %s", l.name, l.events, fmt.Sprintf(format, args...))
}

// run executes p with the lockstep pair as its sink (and the optional fault
// hook), then finishes both trackers and checks the trailing partial path.
func (l *lockstep) run(p *prog.Program, hook vm.FaultHook) {
	m := vm.New(p)
	m.SetSink(l)
	if hook != nil {
		m.SetFaultHook(hook)
	}
	err := m.Run(2_000_000)
	switch {
	case hook != nil && (err == nil || errors.Is(err, vm.ErrStepLimit)):
		l.t.Fatalf("%s: the injected trap never fired (err %v)", l.name, err)
	case hook == nil && err != nil && !errors.Is(err, vm.ErrStepLimit):
		l.t.Fatalf("%s: %v", l.name, err)
	}
	l.full.Finish()
	l.bound.Finish()
	l.check()
	if l.completions == 0 && !l.failed {
		l.t.Errorf("%s: no paths completed; the differential compared nothing", l.name)
	}
}

// TestBoundaryOnlyTrackerMatchesFull is the differential behind NET's
// signature-free tracking: on the nine benchmarks and 64 random programs —
// clean, faulting, and with a branch cap small enough that EndCap fires
// constantly — a tracker without an interner finds exactly the path
// boundaries the signature-building tracker finds.
func TestBoundaryOnlyTrackerMatchesFull(t *testing.T) {
	type input struct {
		name string
		p    *prog.Program
		hook vm.FaultHook
	}
	var inputs []input
	for _, b := range workload.All() {
		p, err := b.Build(0.01)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{name: b.Name, p: p})
	}
	for seed := int64(0); seed < 64; seed++ {
		in := input{name: fmt.Sprintf("randprog-%d", seed), p: randprog.MustGenerate(seed, randprog.Options{})}
		if seed%2 == 1 {
			// Trap halfway through the clean run: the stream ends mid-path.
			clean := vm.New(in.p)
			if err := clean.Run(2_000_000); err != nil && !errors.Is(err, vm.ErrStepLimit) {
				t.Fatal(err)
			}
			at := clean.Steps / 2
			in.name += fmt.Sprintf("-fault@%d", at)
			in.hook = func(m *vm.Machine) error {
				if m.Steps == at {
					return errors.New("injected trap")
				}
				return nil
			}
		}
		inputs = append(inputs, in)
	}
	for _, in := range inputs {
		for _, maxBranches := range []int{DefaultMaxBranches, 3} {
			l := newLockstep(t, fmt.Sprintf("%s/cap=%d", in.name, maxBranches), in.p.Entry, maxBranches)
			l.run(in.p, in.hook)
		}
	}
}

// TestBoundaryOnlyTrackerAllocatesNothing pins that a tracker without an
// interner allocates nothing per event — not even on the first sight of a
// path, where the full tracker must copy the new signature into its
// interner.
func TestBoundaryOnlyTrackerAllocatesNothing(t *testing.T) {
	b, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Build(0.01)
	if err != nil {
		t.Fatal(err)
	}
	var evs []vm.BranchEvent
	m := vm.New(p)
	m.SetSink(vm.Listener(func(ev vm.BranchEvent) { evs = append(evs, ev) }))
	if err := m.Run(200_000); err != nil && !errors.Is(err, vm.ErrStepLimit) {
		t.Fatal(err)
	}
	// One P, as testing.AllocsPerRun measures: no other goroutine's
	// allocation lands between the two readings.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mallocs := func(tr *Tracker) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, ev := range evs {
			tr.OnBranch(ev)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	var done int
	if n := mallocs(NewTracker(nil, p.Entry, func(Completed) { done++ })); n != 0 {
		t.Errorf("boundary-only tracker allocated %d objects over %d events, want 0", n, len(evs))
	}
	if done == 0 {
		t.Fatal("no paths completed")
	}
	// The same first pass through a full tracker interns every new path, so
	// the measurement above can see an allocation when there is one.
	if n := mallocs(NewTracker(NewInterner(), p.Entry, nil)); n == 0 {
		t.Error("full tracker's first pass allocated nothing; the measurement is blind")
	}
}
