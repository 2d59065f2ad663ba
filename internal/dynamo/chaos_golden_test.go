package dynamo

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"netpath/internal/chaos"
	"netpath/internal/prog"
	"netpath/internal/randprog"
	"netpath/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// chaosGolden pins chaos runs across commits: every nonzero Result field
// and the injector's Fired count per kind, so a change to the steps at
// which Dynamo polls its injector — where injected faults land — shows up
// as a diff. Regenerate with `go test ./internal/dynamo -run
// TestChaosRunsGolden -update` only when a change is meant to move them.
const chaosGolden = "chaos_runs.golden"

func TestChaosRunsGolden(t *testing.T) {
	trapMix := softRates
	trapMix.TrapPerM = 40
	var progs []*prog.Program
	for _, seed := range []int64{2, 4} {
		progs = append(progs, randprog.MustGenerate(seed, randprog.Options{MaxDepth: 4, MaxBody: 8}))
	}
	for _, name := range []string{"li", "go"} {
		b, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := b.Build(0.01)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	var sb strings.Builder
	for i, p := range progs {
		seed := int64(i + 1)
		sched := []chaos.Event{
			{Step: 0, Kind: chaos.AbortRecording}, {Step: 0, Kind: chaos.AbortFragment},
			{Step: 2_000 * seed, Kind: chaos.AbortFragment}, {Step: 2_000 * seed, Kind: chaos.AbortFragment},
			{Step: 2_000 * seed, Kind: chaos.AbortRecording}, {Step: 3_500 * seed, Kind: chaos.SpikeSelect, Arg: 4},
			{Step: 5_000 * seed, Kind: chaos.CorruptCounter, Arg: 7}, {Step: 30_000 * seed, Kind: chaos.TrapOOBStore},
		}
		for _, scheme := range []Scheme{SchemeNET, SchemePathProfile, SchemeStatic} {
			for _, mix := range []struct {
				name string
				mk   func() *chaos.Injector
				bail int64
			}{
				{"soft", func() *chaos.Injector { return chaos.NewRandom(seed, softRates) }, 0},
				{"trap", func() *chaos.Injector { return chaos.NewRandom(seed, trapMix) }, 0},
				{"trap/bail", func() *chaos.Injector { return chaos.NewRandom(seed, trapMix) }, 40},
				{"schedule", func() *chaos.Injector { return chaos.NewSchedule(sched) }, 0},
			} {
				cfg := DefaultConfig(scheme, 5)
				cfg.MaxFragments = 8
				cfg.BailoutAfter = mix.bail
				in := mix.mk()
				cfg.Chaos = in
				res, err := New(p, cfg).Run()
				if got := res.InterpInstrs + res.FragInstrs + res.NativeInstrs; got != res.Steps {
					t.Errorf("%s/%v/%s: InterpInstrs+FragInstrs+NativeInstrs = %d, Steps = %d",
						p.Name, scheme, mix.name, got, res.Steps)
				}
				fmt.Fprintf(&sb, "%s/%v/%s: err=%v fired=", p.Name, scheme, mix.name, err)
				for k := chaos.Kind(0); k < chaos.NumKinds; k++ {
					fmt.Fprintf(&sb, "%d,", in.Fired(k))
				}
				rv := reflect.ValueOf(res)
				for i := 0; i < rv.NumField(); i++ {
					if f := rv.Field(i); !f.IsZero() {
						fmt.Fprintf(&sb, " %s=%v", rv.Type().Field(i).Name, f.Interface())
					}
				}
				sb.WriteByte('\n')
			}
		}
	}
	// Abort events due exactly at the step limit never fire: the run stops
	// first, even where a fragment links into its successor at that step
	// (limits 2004 and 2011).
	for limit := int64(2_003); limit <= 2_012; limit++ {
		in := chaos.NewSchedule([]chaos.Event{{Step: limit, Kind: chaos.AbortRecording}, {Step: limit, Kind: chaos.AbortFragment}})
		cfg := DefaultConfig(SchemeNET, 5)
		cfg.MaxSteps, cfg.Chaos = limit, in
		res, err := New(hotLoop(50_000), cfg).Run()
		fmt.Fprintf(&sb, "hotloop/limit%d: err=%v fired=%d,%d frag-aborts=%d steps=%d\n",
			limit, err, in.Fired(chaos.AbortRecording), in.Fired(chaos.AbortFragment), res.FragAborts, res.Steps)
	}
	path := filepath.Join("testdata", chaosGolden)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	got := strings.Split(sb.String(), "\n")
	for i, w := range strings.Split(string(want), "\n") {
		if i >= len(got) || got[i] != w {
			t.Errorf("line %d differs from %s\ngolden: %s\ngot:    %s", i+1, path, w, got[min(i, len(got)-1)])
		}
	}
	if n := len(strings.Split(string(want), "\n")); len(got) != n {
		t.Errorf("%d lines, golden has %d", len(got), n)
	}
}
