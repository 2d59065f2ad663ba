package dynamo

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"netpath/internal/chaos"
	"netpath/internal/prog"
	"netpath/internal/randprog"
	"netpath/internal/vm"
	"netpath/internal/workload"
)

// TestSystemResetReplays is the reuse contract a resident server relies on:
// Run → Reset → Run must reproduce byte-identical results — including every
// robustness counter and the resident fragment cache — to a freshly
// constructed System, under every scheme, with a chaos injector attached,
// and with a two-fragment cache that flushes constantly (the tables are
// cleared in place, not reallocated, so a stale entry would show here).
func TestSystemResetReplays(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		p := randprog.MustGenerate(seed, randprog.Options{})
		for _, scheme := range []Scheme{SchemeNET, SchemePathProfile, SchemeStatic} {
			cfg := DefaultConfig(scheme, 5)
			cfg.Chaos = chaos.NewRandom(seed, softRates)
			checkResetReplays(t, fmt.Sprintf("seed %d %v", seed, scheme), p, cfg)
		}
	}
	p := multiPhase(4, 2_000, 10)
	for _, scheme := range []Scheme{SchemeNET, SchemePathProfile, SchemeStatic} {
		cfg := DefaultConfig(scheme, 5)
		cfg.MaxFragments = 2
		cfg.BailoutAfter = 0
		if n := checkResetReplays(t, fmt.Sprintf("multiphase %v flush-heavy", scheme), p, cfg); n == 0 {
			t.Errorf("%v: a two-fragment cache never flushed", scheme)
		}
	}
}

// checkResetReplays runs p fresh and on a reset System and compares the two;
// it returns the first run's flush count.
func checkResetReplays(t *testing.T, name string, p *prog.Program, cfg Config) int {
	t.Helper()
	fresh := New(p, cfg)
	want, wantErr := fresh.Run()

	sys := New(p, cfg)
	first, err := sys.Run()
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%s: first run err %v, fresh err %v", name, err, wantErr)
	}
	sys.Reset()
	got, gotErr := sys.Run()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: reset run err %v, fresh err %v", name, gotErr, wantErr)
	}
	if got != want {
		t.Errorf("%s: reset run Result differs from fresh run:\n reset: %+v\n fresh: %+v", name, got, want)
	}
	if sys.Machine().Steps != fresh.Machine().Steps || sys.Machine().Reg != fresh.Machine().Reg {
		t.Errorf("%s: reset run machine state differs from fresh run", name)
	}
	if !reflect.DeepEqual(cacheImage(sys), cacheImage(fresh)) {
		t.Errorf("%s: reset run's resident cache differs from fresh run's", name)
	}
	return first.Flushes
}

// TestRunContextDeadline: a guest that outlives its wall-clock budget is
// stopped with a typed *DeadlineError — never a hang — and the partial
// Result is accounted. A background context changes nothing.
func TestRunContextDeadline(t *testing.T) {
	b, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Build(1.0)
	if err != nil {
		t.Fatal(err)
	}

	// Expired before the first step: preemption must fire almost at once.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	sys := New(p, DefaultConfig(SchemeNET, 50))
	res, err := sys.RunContext(ctx)
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *DeadlineError", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, must unwrap to context.DeadlineExceeded", err)
	}
	if de.Steps != res.Steps {
		t.Errorf("DeadlineError.Steps = %d, Result.Steps = %d", de.Steps, res.Steps)
	}

	// Background context: identical to Run.
	want, err := New(p, DefaultConfig(SchemeNET, 50)).Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	got, err := New(p, DefaultConfig(SchemeNET, 50)).RunContext(context.Background())
	if err != nil {
		t.Fatalf("RunContext(Background): %v", err)
	}
	if got != want {
		t.Errorf("RunContext(Background) differs from Run")
	}
}

// TestRunContextCancelMidRun cancels from another goroutine while the guest
// executes and checks the run stops promptly with the typed error.
func TestRunContextCancelMidRun(t *testing.T) {
	b, err := workload.ByName("go")
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Build(1.0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = New(p, DefaultConfig(SchemeNET, 50)).RunContext(ctx)
	var de *DeadlineError
	if err != nil && !errors.As(err, &de) {
		// The guest may legitimately finish before the deadline on a fast
		// machine; any other error is a failure.
		t.Fatalf("err = %v, want nil or *DeadlineError", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("run took %v after a 5ms deadline: preemption not cooperative", elapsed)
	}
}

// TestBailedRunPreemptsPerChunk: after bail-out the program runs native on
// the batched muted-sink loop, which returns to the dispatcher — and its
// deadline check — every nativeChunk steps. A guest that bails at once and
// then spins for hours stops under a cancelled context with a typed error,
// preempted while running native.
func TestBailedRunPreemptsPerChunk(t *testing.T) {
	p := hotLoop(1 << 40)
	cfg := DefaultConfig(SchemeNET, 1_000_000) // never selects: low reuse
	cfg.BailoutAfter = 10

	// One native batch is one chunk: it stops short of the run's end and
	// hands control back to the dispatcher.
	cfg.MaxSteps = 1_000
	sys := New(p, cfg)
	if res, err := sys.Run(); !errors.Is(err, vm.ErrStepLimit) || !res.BailedOut {
		t.Fatalf("warm-up: err %v, bailed %v; want a step limit after bail-out", err, res.BailedOut)
	}
	sys.cfg.MaxSteps = 0
	before := sys.m.Steps
	if err := sys.runNative(); err != nil || sys.m.Halted {
		t.Fatalf("runNative: err %v, halted %v", err, sys.m.Halted)
	}
	if n := sys.m.Steps - before; n != nativeChunk {
		t.Errorf("one native batch ran %d steps, want %d", n, nativeChunk)
	}

	cfg.MaxSteps = 0
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := New(p, cfg).RunContext(ctx)
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *DeadlineError", err)
	}
	if !res.BailedOut || de.Steps <= res.BailStep || res.NativeInstrs != de.Steps-res.BailStep {
		t.Errorf("preempted at step %d, bail-out %v at step %d with %d native steps: want preemption in native code",
			de.Steps, res.BailedOut, res.BailStep, res.NativeInstrs)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("run took %v after a 20ms deadline: native execution not preemptible", elapsed)
	}
}
