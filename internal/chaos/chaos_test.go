package chaos

import (
	"reflect"
	"testing"

	"netpath/internal/isa"
	"netpath/internal/prog"
	"netpath/internal/vm"
)

// trace walks an injector over steps [0, n) querying every integration point
// and records which (kind, step) pairs fire — the injector's full observable
// behavior.
func trace(in *Injector, n int64) []Event {
	var out []Event
	for step := int64(0); step < n; step++ {
		if in.AbortRecording(step) {
			out = append(out, Event{Step: step, Kind: AbortRecording})
		}
		if in.AbortFragment(step) {
			out = append(out, Event{Step: step, Kind: AbortFragment})
		}
		if d, ok := in.CorruptCounter(step); ok {
			out = append(out, Event{Step: step, Kind: CorruptCounter, Arg: d})
		}
		if in.SpikeSelect(step) {
			out = append(out, Event{Step: step, Kind: SpikeSelect})
		}
	}
	return out
}

var testRates = Rates{
	RecordAbortPerM: 40_000, // dense enough to fire many times in 10k steps
	FragAbortPerM:   25_000,
	CorruptPerM:     10_000,
	SpikePerM:       5_000,
	SpikeLen:        4,
	CorruptMag:      1000,
}

func TestRandomDeterminism(t *testing.T) {
	a := trace(NewRandom(7, testRates), 10_000)
	b := trace(NewRandom(7, testRates), 10_000)
	if len(a) == 0 {
		t.Fatal("no events fired; rates too low for the test to mean anything")
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same (seed, rates) produced different schedules")
	}
	c := trace(NewRandom(8, testRates), 10_000)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced the identical schedule")
	}
}

func TestResetReplays(t *testing.T) {
	in := NewRandom(3, testRates)
	first := trace(in, 10_000)
	firedFirst := in.TotalFired()
	in.Reset()
	if in.TotalFired() != 0 {
		t.Errorf("TotalFired after Reset = %d, want 0", in.TotalFired())
	}
	second := trace(in, 10_000)
	if !reflect.DeepEqual(first, second) {
		t.Error("Reset did not replay the identical schedule")
	}
	if in.TotalFired() != firedFirst {
		t.Errorf("TotalFired = %d on replay, want %d", in.TotalFired(), firedFirst)
	}
}

func TestScheduleFiresAtOrAfterStep(t *testing.T) {
	in := NewSchedule([]Event{
		{Step: 500, Kind: AbortRecording},
		{Step: 100, Kind: AbortRecording}, // out of order on purpose
		{Step: 200, Kind: CorruptCounter, Arg: -77},
	})
	// Nothing is due before its step.
	if in.AbortRecording(99) {
		t.Error("event fired before its scheduled step")
	}
	// An overdue event fires at the first query at or after its step — here
	// the step-100 event fires at step 150, and only one event per query.
	if !in.AbortRecording(150) {
		t.Error("overdue event did not fire")
	}
	if in.AbortRecording(150) {
		t.Error("event fired twice")
	}
	if d, ok := in.CorruptCounter(200); !ok || d != -77 {
		t.Errorf("CorruptCounter(200) = %d, %v; want -77, true", d, ok)
	}
	if !in.AbortRecording(1_000_000) {
		t.Error("second scheduled event did not fire")
	}
	if in.AbortRecording(2_000_000) {
		t.Error("exhausted schedule kept firing")
	}
	if got := in.Fired(AbortRecording); got != 2 {
		t.Errorf("Fired(AbortRecording) = %d, want 2", got)
	}
}

func TestSpikeBurst(t *testing.T) {
	in := NewSchedule([]Event{{Step: 10, Kind: SpikeSelect, Arg: 3}})
	if in.SpikeSelect(5) {
		t.Error("spike before its step")
	}
	// The event fires at step 10 and forces exactly Arg=3 selections.
	for i := 0; i < 3; i++ {
		if !in.SpikeSelect(int64(10 + i)) {
			t.Errorf("query %d of burst not forced", i)
		}
	}
	if in.SpikeSelect(20) {
		t.Error("burst exceeded its length")
	}
}

func TestVMFaultHook(t *testing.T) {
	p := func() *prog.Program {
		b := prog.NewBuilder("spin")
		b.SetMemSize(4)
		f := b.Func("main")
		f.Label("top")
		f.AddI(1, 1, 1)
		f.BrI(isa.Lt, 1, 1_000_000, "top")
		f.Halt()
		return b.MustBuild()
	}()

	run := func(in *Injector) (int64, error) {
		m := vm.New(p)
		m.SetFaultHook(in.VMFault)
		err := m.Run(0)
		return m.Steps, in.anyTrapCheck(t, m, err)
	}

	in := NewSchedule([]Event{{Step: 123, Kind: TrapBadIndirect}})
	steps, err := run(in)
	if err == nil {
		t.Fatal("scheduled trap did not surface from Run")
	}
	if steps != 123 {
		t.Errorf("trap fired at step %d, want 123", steps)
	}

	// Replay: the same schedule faults at the same step.
	in2 := NewSchedule([]Event{{Step: 123, Kind: TrapBadIndirect}})
	steps2, err2 := run(in2)
	if steps2 != steps || (err2 == nil) != (err == nil) || err2.Error() != err.Error() {
		t.Errorf("replay diverged: (%d, %v) vs (%d, %v)", steps, err, steps2, err2)
	}
}

// anyTrapCheck asserts err (if non-nil) is an injected vm.Fault and the
// machine halted, returning err for the caller's own checks.
func (in *Injector) anyTrapCheck(t *testing.T, m *vm.Machine, err error) error {
	t.Helper()
	if err == nil {
		return nil
	}
	f, ok := err.(*vm.Fault)
	if !ok {
		t.Fatalf("trap error %v (%T) is not a *vm.Fault", err, err)
	}
	if f.Kind != vm.FaultInjected {
		t.Errorf("fault kind = %v, want injected", f.Kind)
	}
	if !m.Halted {
		t.Error("machine not halted after injected trap")
	}
	return err
}

// perStepLog polls the per-step streams — Trap, AbortRecording,
// AbortFragment, in that order — at every step of [0, n) and logs what
// fires.
func perStepLog(in *Injector, n int64) []Event {
	var out []Event
	for step := int64(0); step < n; step++ {
		out = pollPerStep(in, step, out)
	}
	return out
}

// boundedLog polls the per-step streams only where Next says one can fire:
// from each step it jumps to the nearer of the two bounds, but never
// backwards, as a batched caller does.
func boundedLog(in *Injector, n int64) []Event {
	var out []Event
	for step := int64(0); ; step++ {
		trap, abort := in.Next()
		step = max(step, min(trap, abort))
		if step >= n {
			return out
		}
		out = pollPerStep(in, step, out)
	}
}

func pollPerStep(in *Injector, step int64, out []Event) []Event {
	fired := in.fired
	if in.Trap(step, 0) != nil {
		for k := TrapOOBLoad; k <= TrapStackOverflow; k++ {
			if in.fired[k] != fired[k] {
				out = append(out, Event{Step: step, Kind: k})
			}
		}
	}
	if in.AbortRecording(step) {
		out = append(out, Event{Step: step, Kind: AbortRecording})
	}
	if in.AbortFragment(step) {
		out = append(out, Event{Step: step, Kind: AbortFragment})
	}
	return out
}

// TestNextBoundsPerStepPolling checks the contract batched callers rely on:
// polling the per-step streams only at the steps Next reports fires the
// same events at the same steps, and leaves the same Fired counts, as
// polling at every step — for random and scheduled injectors, with events
// at step 0, several kinds due at one step and several events of one kind
// due at one step (the later ones fire at the steps after), and again after
// Reset.
func TestNextBoundsPerStepPolling(t *testing.T) {
	sched := []Event{
		{Step: 0, Kind: AbortRecording}, {Step: 0, Kind: AbortFragment},
		{Step: 40, Kind: TrapOOBLoad}, {Step: 40, Kind: TrapStackOverflow}, {Step: 40, Kind: TrapOOBLoad},
		{Step: 40, Kind: AbortFragment}, {Step: 40, Kind: AbortFragment}, {Step: 41, Kind: AbortFragment},
		{Step: 77, Kind: AbortRecording}, {Step: 77, Kind: TrapBadIndirect}, {Step: 900, Kind: TrapOOBStore},
		{Step: 5, Kind: CorruptCounter, Arg: 9}, {Step: 5, Kind: SpikeSelect, Arg: 2},
	}
	rates := Rates{TrapPerM: 8_000, RecordAbortPerM: 40_000, FragAbortPerM: 25_000, CorruptPerM: 10_000}
	for name, mk := range map[string]func() *Injector{
		"schedule": func() *Injector { return NewSchedule(sched) },
		"random":   func() *Injector { return NewRandom(5, rates) },
		"dense":    func() *Injector { return NewRandom(6, Rates{TrapPerM: 4e6, FragAbortPerM: 1e6}) },
	} {
		per, bounded := mk(), mk()
		for round := 0; round < 2; round++ {
			want, got := perStepLog(per, 20_000), boundedLog(bounded, 20_000)
			if len(want) == 0 {
				t.Fatalf("%s: nothing fired", name)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s round %d: bounded polling fired\n%v\nper-step polling fired\n%v", name, round, got, want)
			}
			for k := Kind(0); k < NumKinds; k++ {
				if per.Fired(k) != bounded.Fired(k) {
					t.Errorf("%s round %d: Fired(%v) %d bounded, %d per step", name, round, k, bounded.Fired(k), per.Fired(k))
				}
			}
			per.Reset()
			bounded.Reset()
		}
	}
}
