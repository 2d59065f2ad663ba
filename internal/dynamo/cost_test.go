package dynamo

import (
	"testing"

	"netpath/internal/telemetry"
	"netpath/internal/workload"
)

// TestPrice prices Results whose only non-zero count is one term, under a
// model with a distinct power-of-two cost per term: exactly the expected
// cycle field (and Cycles, unless the term is the native baseline) must
// hold exactly that cost. A count priced into the wrong field, twice, or
// not at all fails.
func TestPrice(t *testing.T) {
	c := CostModel{
		NativeInstr:     1,
		TakenPenalty:    2,
		InterpInstr:     4,
		HeadCounter:     8,
		BitShift:        16,
		IndAppend:       32,
		PathTableUpdate: 64,
		RecordInstr:     128,
		OptimizeInstr:   256,
		FragInstr:       512,
		FragEnter:       1024,
		FragExit:        2048,
		LinkedJump:      4096,
		FlushCost:       8192,
	}
	native := func(r *Result) *float64 { return &r.NativeCycles }
	interp := func(r *Result) *float64 { return &r.InterpCycles }
	frag := func(r *Result) *float64 { return &r.FragCycles }
	profile := func(r *Result) *float64 { return &r.ProfileCycles }
	build := func(r *Result) *float64 { return &r.BuildCycles }
	trans := func(r *Result) *float64 { return &r.TransCycles }
	for _, tc := range []struct {
		name   string
		counts Result
		field  func(*Result) *float64 // nil: priced into Cycles only
		cost   float64
		total  bool // the cost is part of Cycles
	}{
		{"Steps", Result{Steps: 1}, native, c.NativeInstr, false},
		{"Redirects", Result{Redirects: 1}, native, c.TakenPenalty, false},
		{"NativeInstrs", Result{NativeInstrs: 1}, nil, c.NativeInstr, true},
		{"NativeRedirects", Result{NativeRedirects: 1}, nil, c.TakenPenalty, true},
		{"InterpInstrs", Result{InterpInstrs: 1}, interp, c.InterpInstr, true},
		{"HeadCounterHits", Result{HeadCounterHits: 1}, profile, c.HeadCounter, true},
		{"BitShifts", Result{BitShifts: 1}, profile, c.BitShift, true},
		{"IndAppends", Result{IndAppends: 1}, profile, c.IndAppend, true},
		{"PathTableUpdates", Result{PathTableUpdates: 1}, profile, c.PathTableUpdate, true},
		{"RecordedInstrs", Result{RecordedInstrs: 1}, build, c.RecordInstr, true},
		{"OptimizedInstrs", Result{OptimizedInstrs: 1}, build, c.OptimizeInstr, true},
		{"FragInstrs", Result{FragInstrs: 1}, frag, c.FragInstr, true},
		{"ElimInstrs", Result{FragInstrs: 2, ElimInstrs: 1}, frag, c.FragInstr, true},
		{"FragEnters", Result{FragEnters: 1}, trans, c.FragEnter, true},
		{"FragExits", Result{FragExits: 1}, trans, c.FragExit, true},
		{"LinkedJumps", Result{LinkedJumps: 1}, trans, c.LinkedJump, true},
		{"Flushes", Result{Flushes: 1}, trans, c.FlushCost, true},
	} {
		got, want := tc.counts, tc.counts
		c.Price(&got)
		if tc.field != nil {
			*tc.field(&want) = tc.cost
		}
		if tc.total {
			want.Cycles = tc.cost
		}
		if got != want {
			t.Errorf("%s: priced native %v, total %v, interp %v, frag %v, profile %v, build %v, trans %v; want %v, %v, %v, %v, %v, %v, %v",
				tc.name, got.NativeCycles, got.Cycles, got.InterpCycles, got.FragCycles, got.ProfileCycles, got.BuildCycles, got.TransCycles,
				want.NativeCycles, want.Cycles, want.InterpCycles, want.FragCycles, want.ProfileCycles, want.BuildCycles, want.TransCycles)
		}
	}
}

// TestTelemetryCyclesMatchPrice checks the dynamo_cycles_*_milli counters
// against the priced Result: with a small flush window the counters sync
// many times mid-run as well as at finish, and each one's delta over the
// run must be exactly 1000x the matching Result field. The counters are
// process-wide, so this relies on the package's tests not running in
// parallel.
func TestTelemetryCyclesMatchPrice(t *testing.T) {
	b, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Build(0.02)
	if err != nil {
		t.Fatal(err)
	}
	counters := []*telemetry.Counter{telCyclesInterp, telCyclesFrag, telCyclesProfile, telCyclesBuild, telCyclesTrans}
	for _, scheme := range []Scheme{SchemeNET, SchemePathProfile} {
		before := make([]int64, len(counters))
		for i, c := range counters {
			before[i] = c.Value()
		}
		cfg := DefaultConfig(scheme, 50)
		cfg.FlushWindow = 100
		cfg.Telemetry = telemetry.Def.NewSink()
		midRun := false
		cfg.ProbeEvery = 1000
		cfg.Probe = func(*System) { midRun = midRun || telCyclesInterp.Value() != before[0] }
		res, err := New(p, cfg).Run()
		if err != nil {
			t.Fatal(err)
		}
		if !midRun {
			t.Errorf("%v: cycle counters never synced mid-run", scheme)
		}
		for i, f := range []float64{res.InterpCycles, res.FragCycles, res.ProfileCycles, res.BuildCycles, res.TransCycles} {
			if got, want := counters[i].Value()-before[i], int64(1000*f); got != want || want == 0 {
				t.Errorf("%v: %s moved by %d, want %d", scheme, counters[i].Name(), got, want)
			}
		}
	}
}
