package dynamo

import (
	"bytes"
	"errors"
	"reflect"
	"sort"
	"testing"
	"time"

	"netpath/internal/isa"
	"netpath/internal/prog"
	"netpath/internal/snapshot"
	"netpath/internal/vm"
	"netpath/internal/workload"
)

// buildNestedLoop is a deterministic two-level loop whose inner path is
// identical on every iteration — the shape where an interrupted-and-restored
// run must converge to exactly the fragment cache of an uninterrupted one,
// independent of where the interruption lands.
func buildNestedLoop(t *testing.T, outer, inner int64) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("nested")
	b.SetMemSize(8)
	f := b.Func("main")
	f.MovI(0, 0)
	f.Label("outer")
	f.MovI(1, 0)
	f.Label("inner")
	f.AddI(2, 2, 1)
	f.AddI(1, 1, 1)
	f.BrI(isa.Lt, 1, inner, "inner")
	f.AddI(0, 0, 1)
	f.BrI(isa.Lt, 0, outer, "outer")
	f.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

// replayConfig disables the cumulative heuristics (flush window, bail-out)
// whose arithmetic depends on absolute path-event counts, which a
// split-into-two-processes run cannot preserve; everything else is default.
func replayConfig(scheme Scheme, tau int64) Config {
	cfg := DefaultConfig(scheme, tau)
	cfg.FlushWindow = 0
	cfg.BailoutAfter = 0
	return cfg
}

// cacheImage flattens the fragment cache to a comparable form: sorted
// (start, steps) pairs.
type fragImage struct {
	Start int
	Steps []snapshot.Step
}

func cacheImage(s *System) []fragImage {
	var out []fragImage
	for _, fr := range resident(s) {
		img := fragImage{Start: fr.Start}
		for _, st := range fr.Steps {
			img.Steps = append(img.Steps, snapshot.Step{PC: st.PC, Next: st.Next})
		}
		out = append(out, img)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// TestSnapshotReplayEquivalence is the warm-start contract: interrupt a cold
// run at an arbitrary step, snapshot it, Restore into a fresh System, run to
// completion — and the final fragment cache must be exactly what one
// uninterrupted run produces, along with identical architectural state.
func TestSnapshotReplayEquivalence(t *testing.T) {
	p := buildNestedLoop(t, 400, 25)

	full := New(p, replayConfig(SchemeNET, 5))
	if _, err := full.Run(); err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	want := cacheImage(full)
	if len(want) == 0 {
		t.Fatal("uninterrupted run cached nothing; test program too cold")
	}

	for _, cut := range []int64{97, 1003, 5000} {
		cold := New(p, replayConfig(SchemeNET, 5))
		cold.cfg.MaxSteps = cut
		if _, err := cold.Run(); !errors.Is(err, vm.ErrStepLimit) {
			t.Fatalf("cut %d: err = %v, want step limit", cut, err)
		}
		snap := cold.Snapshot("")

		warm := New(p, replayConfig(SchemeNET, 5))
		if err := warm.Restore(snap); err != nil {
			t.Fatalf("cut %d: Restore: %v", cut, err)
		}
		if _, err := warm.Run(); err != nil {
			t.Fatalf("cut %d: warm run: %v", cut, err)
		}
		if got := cacheImage(warm); !reflect.DeepEqual(got, want) {
			t.Errorf("cut %d: warm fragment cache differs from uninterrupted run:\n got %+v\nwant %+v",
				cut, got, want)
		}
		if warm.Machine().Reg != full.Machine().Reg {
			t.Errorf("cut %d: architectural state differs after warm run", cut)
		}
	}
}

// TestRestoreWarmStart: a restored System must start hot — fragments
// installed before the first guest instruction, interpreted instructions
// collapsing versus the cold run, and persisted tier-2 decisions re-enqueued
// so superblock coverage arrives within the first flush window rather than
// after re-learning.
func TestRestoreWarmStart(t *testing.T) {
	p := buildHotLoop(t, 60_000)

	tc := NewTier2Compiler(1, 16)
	defer tc.Close()
	cfg := DefaultConfig(SchemeNET, 5)
	cfg.Tier2 = tc
	cfg.Tier2Threshold = 4
	cold := New(p, cfg)
	coldRes, err := cold.Run()
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	snap := cold.Snapshot("")
	if len(snap.Traces) == 0 {
		t.Fatal("cold run snapshot has no traces")
	}
	hasT2 := false
	for _, tr := range snap.Traces {
		hasT2 = hasT2 || tr.Tier2
	}
	if !hasT2 {
		t.Fatal("cold run promoted nothing; snapshot carries no tier-2 decision")
	}

	tc2 := NewTier2Compiler(1, 16)
	defer tc2.Close()
	cfg2 := cfg
	cfg2.Tier2 = tc2
	warm := New(p, cfg2)
	if err := warm.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if warm.res.RestoredFragments == 0 || warm.res.RestoredHeads == 0 {
		t.Fatalf("nothing restored: %+v", warm.res)
	}
	if warm.res.RestoredT2 == 0 {
		t.Fatal("persisted tier-2 decision was not re-enqueued at restore")
	}
	// The compile was enqueued before the first guest instruction; give the
	// background worker its publication window, then run.
	waitTier2(t, tc2, 1)
	warmRes, err := warm.Run()
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	if warmRes.T2Enters == 0 {
		t.Error("warm run never entered the pre-promoted superblock")
	}
	if warmRes.InterpInstrs*2 > coldRes.InterpInstrs {
		t.Errorf("warm run interpreted %d instrs, want ≤ half of cold %d",
			warmRes.InterpInstrs, coldRes.InterpInstrs)
	}
	if warm.Machine().Reg != cold.Machine().Reg {
		t.Error("warm run architectural state differs from cold run")
	}
}

// TestTier2RestoredFlowIsNotEvidence: a restored fragment's Completions
// start at its persisted Flow, but promotion counts only completions seen in
// this run. Without a persisted tier-2 decision it reaches the queue after
// Tier2Threshold in-run completions that pass the flow gate against this
// run's path events; with one, Restore enqueues it at once, and deopt
// backoff still pushes the next attempt out exponentially.
func TestTier2RestoredFlowIsNotEvidence(t *testing.T) {
	const (
		threshold = 4
		bigFlow   = 1 << 20
	)
	p := buildHotLoop(t, 2_000)
	cold := New(p, DefaultConfig(SchemeNET, 5))
	if _, err := cold.Run(); err != nil {
		t.Fatalf("cold run: %v", err)
	}
	snap := cold.Snapshot("")
	if len(snap.Traces) == 0 {
		t.Fatal("cold run snapshot has no traces")
	}
	for i := range snap.Traces {
		snap.Traces[i].Flow = bigFlow
		snap.Traces[i].Tier2 = false
	}

	tc := NewTier2Compiler(1, 16)
	defer tc.Close()
	cfg := DefaultConfig(SchemeNET, 5)
	cfg.Tier2 = tc
	cfg.Tier2Threshold = threshold
	warm := func() (*System, []*Fragment) {
		t.Helper()
		sys := New(p, cfg)
		if err := sys.Restore(snap); err != nil {
			t.Fatalf("Restore: %v", err)
		}
		var frs []*Fragment
		for _, fr := range resident(sys) {
			if fr.Completions != bigFlow {
				t.Fatalf("fragment %d restored with %d completions, want the persisted flow %d",
					fr.Start, fr.Completions, bigFlow)
			}
			frs = append(frs, fr)
		}
		if len(frs) == 0 {
			t.Fatal("Restore installed no fragment")
		}
		sort.Slice(frs, func(i, j int) bool { return frs[i].Start < frs[j].Start })
		return sys, frs
	}
	promoted := func(fr *Fragment) bool { return fr.t2Queued || fr.t2.Load() != nil }

	// Below the threshold in this run nothing reaches the queue, however
	// large the restored flow; the threshold-th in-run completion does (each
	// fragment carries far more than 1/Tier2MinFlow of this run's events).
	sys, frs := warm()
	if sys.res.RestoredT2 != 0 || sys.res.T2Promotions != 0 {
		t.Fatalf("restore without tier-2 decisions promoted: RestoredT2=%d T2Promotions=%d",
			sys.res.RestoredT2, sys.res.T2Promotions)
	}
	for k := int64(1); k <= threshold; k++ {
		for _, fr := range frs {
			fr.Completions++
			sys.res.PathEvents++
			sys.maybePromote(fr)
			if got, want := promoted(fr), k == threshold; got != want {
				t.Fatalf("fragment %d after %d in-run completions: promoted=%v, want %v (threshold %d)",
					fr.Start, k, got, want, threshold)
			}
		}
	}

	// The flow gate weighs in-run completions against this run's path
	// events: past the threshold but under 1/Tier2MinFlow of the run's flow,
	// a restored fragment stays in tier 1.
	sys, frs = warm()
	fr := frs[0]
	events := 2 * threshold * sys.t2MinFlow
	sys.res.PathEvents = events
	for k := int64(1); k <= 2*threshold; k++ {
		fr.Completions++
		sys.maybePromote(fr)
		if got, want := promoted(fr), k*sys.t2MinFlow >= events; got != want {
			t.Fatalf("after %d in-run completions of %d path events: promoted=%v, want %v",
				k, events, got, want)
		}
	}

	// A persisted decision still enqueues at restore, before any evidence.
	for i := range snap.Traces {
		snap.Traces[i].Tier2 = true
	}
	sys, frs = warm()
	if sys.res.RestoredT2 == 0 {
		t.Fatal("persisted tier-2 decision was not enqueued at restore")
	}
	fr = nil
	for _, cand := range frs {
		if cand.t2Queued {
			fr = cand
			break
		}
	}
	if fr == nil {
		t.Fatal("RestoredT2 > 0 but no fragment is queued")
	}
	// Deopt backoff: each teardown re-arms promotion threshold<<deopts
	// completions out, and not one completion sooner.
	for d := int64(1); d <= 3; d++ {
		for end := time.Now().Add(10 * time.Second); fr.t2.Load() == nil; time.Sleep(time.Millisecond) {
			if time.Now().After(end) {
				t.Fatal("tier-2 compile never published")
			}
		}
		sys.t2Deopt(fr)
		if want := fr.Completions + threshold<<d; fr.t2Next != want {
			t.Fatalf("deopt %d: t2Next = %d, want %d", d, fr.t2Next, want)
		}
		fr.Completions = fr.t2Next - 1
		sys.maybePromote(fr)
		if promoted(fr) {
			t.Fatalf("deopt %d: re-promoted one completion before the backoff", d)
		}
		fr.Completions++
		sys.maybePromote(fr)
		if !fr.t2Queued {
			t.Fatalf("deopt %d: not re-promoted at the backoff", d)
		}
	}
}

// TestRestoreRejects pins the refusal cases: live system, wrong program,
// wrong scheme — each a typed error, each leaving the System cold but
// runnable.
func TestRestoreRejects(t *testing.T) {
	p := buildNestedLoop(t, 10, 10)
	good := New(p, replayConfig(SchemeNET, 5))
	if _, err := good.Run(); err != nil {
		t.Fatal(err)
	}
	snap := good.Snapshot("")

	live := New(p, replayConfig(SchemeNET, 5))
	if _, err := live.Run(); err != nil {
		t.Fatal(err)
	}
	if err := live.Restore(snap); !errors.Is(err, ErrRestoreLive) {
		t.Errorf("restore into live system: err = %v, want ErrRestoreLive", err)
	}

	other := buildHotLoop(t, 100)
	sys := New(other, replayConfig(SchemeNET, 5))
	if err := sys.Restore(snap); !errors.Is(err, ErrFingerprintMismatch) {
		t.Errorf("cross-program restore: err = %v, want ErrFingerprintMismatch", err)
	}

	pp := New(p, replayConfig(SchemePathProfile, 5))
	if err := pp.Restore(snap); !errors.Is(err, ErrSchemeMismatch) {
		t.Errorf("cross-scheme restore: err = %v, want ErrSchemeMismatch", err)
	}
	// A refused Restore must leave the System cold but fully runnable.
	if _, err := pp.Run(); err != nil {
		t.Errorf("run after refused restore: %v", err)
	}
}

// TestRestoreSkipsForgedTraces: a persisted trace that is not a path — one
// step moved to another address, or steps that begin somewhere other than
// the trace's Start — must not change what the guest computes, even when
// its tier-2 decision is restored and the translation validator is off
// (the default of cmd/dynamo -snapshot-in and netpathd). Tier 1 checks every
// successor at run time, but a superblock executes the recorded
// instructions, so Restore and the superblock compiler must refuse them.
func TestRestoreSkipsForgedTraces(t *testing.T) {
	b, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Build(0.02)
	if err != nil {
		t.Fatal(err)
	}
	tc := NewTier2Compiler(1, 64)
	defer tc.Close()
	cfg := DefaultConfig(SchemeNET, 50)
	cfg.Tier2 = tc
	cfg.Tier2Threshold = 4
	cold := New(p, cfg)
	if _, err := cold.Run(); err != nil {
		t.Fatalf("cold run: %v", err)
	}
	snap := cold.Snapshot("")
	sort.SliceStable(snap.Traces, func(i, j int) bool { return snap.Traces[i].Flow > snap.Traces[j].Flow })

	// Forgery 1: in the heaviest trace with a straight step to spare, move
	// that step to another straight instruction. Its own successor stays
	// legal (pc+1), so only the chaining gives it away.
	moved := -1
	for i := 0; i < len(snap.Traces) && moved < 0; i++ {
		tr := &snap.Traces[i]
		for k := 1; k+1 < len(tr.Steps); k++ {
			pc := tr.Steps[k].PC
			if y := otherALU(p, pc); straightALU(p.Instrs[pc].Op) && y >= 0 {
				tr.Steps[k] = snapshot.Step{PC: y, Next: y + 1}
				tr.Tier2 = true
				moved = i
				break
			}
		}
	}
	// Forgery 2: the heaviest other trace takes the genuine steps of the
	// next one, a real path that starts somewhere other than its Start.
	var rest []int
	for i := range snap.Traces {
		if i != moved && len(snap.Traces[i].Steps) >= 2 {
			rest = append(rest, i)
		}
	}
	if moved < 0 || len(rest) < 2 {
		t.Fatalf("no traces to forge (moved %d, %d others)", moved, len(rest))
	}
	headless := &snap.Traces[rest[0]]
	headless.Steps = append([]snapshot.Step(nil), snap.Traces[rest[1]].Steps...)
	headless.Tier2 = true

	wc := NewTier2Compiler(1, 64)
	defer wc.Close()
	wcfg := cfg // ValidateEmits stays off
	wcfg.Tier2 = wc
	warm := New(p, wcfg)
	if err := warm.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	for _, start := range []int{snap.Traces[moved].Start, headless.Start} {
		if warm.cache.get(start) != nil {
			t.Errorf("Restore installed the forged trace at %d", start)
		}
	}
	waitTier2(t, wc, int64(warm.res.RestoredT2))
	res, err := warm.Run()
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	if res.T2Enters == 0 {
		t.Error("warm run never entered a superblock")
	}

	ref := vm.New(p)
	ref.SetEngine(vm.EngineLegacy)
	if err := ref.Run(0); err != nil {
		t.Fatalf("legacy run: %v", err)
	}
	if res.Steps != ref.Steps || warm.Machine().Steps != ref.Steps {
		t.Errorf("steps: warm %d (machine %d), legacy %d", res.Steps, warm.Machine().Steps, ref.Steps)
	}
	if warm.Machine().Reg != ref.Reg {
		t.Errorf("registers differ from the legacy engine:\n got %v\nwant %v", warm.Machine().Reg, ref.Reg)
	}
}

// straightALU reports ops a moved step can execute in place of another
// without touching memory or control flow.
func straightALU(op isa.Op) bool {
	switch op {
	case isa.Add, isa.Sub, isa.AddI, isa.MovI, isa.Mov, isa.AndI:
		return true
	}
	return false
}

// otherALU returns the first straight ALU instruction of p that differs
// from the one at pc, or -1.
func otherALU(p *prog.Program, pc int) int {
	for y, in := range p.Instrs {
		if y != pc && y+1 < p.Len() && straightALU(in.Op) && in != p.Instrs[pc] {
			return y
		}
	}
	return -1
}

// TestRestoreRespectsBlacklist: a head the collecting fleet permanently
// blacklisted must be neither counted nor re-installed by Restore.
func TestRestoreRespectsBlacklist(t *testing.T) {
	p := buildNestedLoop(t, 50, 20)
	cold := New(p, replayConfig(SchemeNET, 5))
	if _, err := cold.Run(); err != nil {
		t.Fatal(err)
	}
	snap := cold.Snapshot("")
	if len(snap.Traces) == 0 {
		t.Fatal("no traces to poison")
	}
	victim := snap.Traces[0].Start
	snap.Blacklist = append(snap.Blacklist, snapshot.BlackEntry{Addr: victim, Aborts: 99})

	warm := New(p, replayConfig(SchemeNET, 5))
	if err := warm.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if warm.cache.get(victim) != nil {
		t.Error("blacklisted head's trace was installed anyway")
	}
	for i, k := range warm.heads.keys {
		if k == victim && warm.heads.vals[i] > 0 {
			t.Error("blacklisted head's counter was seeded anyway")
		}
	}
}

// TestRestorePathProfile: persisted path counters re-arm under the
// PathProfile scheme — counts survive, armed paths emit on first completion.
func TestRestorePathProfile(t *testing.T) {
	p := buildNestedLoop(t, 200, 25)
	cold := New(p, replayConfig(SchemePathProfile, 5))
	if _, err := cold.Run(); err != nil {
		t.Fatal(err)
	}
	snap := cold.Snapshot("")
	if len(snap.Paths) == 0 {
		t.Fatal("PathProfile snapshot carries no path counts")
	}

	warm := New(p, replayConfig(SchemePathProfile, 5))
	if err := warm.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if warm.res.RestoredPaths == 0 {
		t.Fatal("no path counters restored")
	}
	warmRes, err := warm.Run()
	if err != nil {
		t.Fatal(err)
	}
	coldRes := cold.res
	if warmRes.InterpInstrs >= coldRes.InterpInstrs {
		t.Errorf("warm PathProfile run interpreted %d instrs, cold %d: no warm-up win",
			warmRes.InterpInstrs, coldRes.InterpInstrs)
	}
}

// TestSnapshotCodecRoundTrip drives a real benchmark's profile through the
// full pipeline: run → Snapshot → encode → decode under the System's own
// limits → Restore — the exact path cmd/dynamo takes across a restart.
func TestSnapshotCodecRoundTrip(t *testing.T) {
	b, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Build(0.05)
	if err != nil {
		t.Fatal(err)
	}
	cold := New(p, DefaultConfig(SchemeNET, 50))
	if _, err := cold.Run(); err != nil {
		t.Fatal(err)
	}
	snap := cold.Snapshot("tenant-a")

	var buf bytes.Buffer
	if err := snapshot.Encode(&buf, snapshot.NewFile(snap)); err != nil {
		t.Fatal(err)
	}
	warm := New(p, DefaultConfig(SchemeNET, 50))
	file, err := snapshot.Decode(&buf, warm.SnapshotLimits())
	if err != nil {
		t.Fatal(err)
	}
	if len(file.Snapshots) != 1 || !reflect.DeepEqual(file.Snapshots[0], snap) {
		t.Fatal("snapshot did not survive the codec")
	}
	if err := warm.Restore(file.Snapshots[0]); err != nil {
		t.Fatal(err)
	}
	if warm.res.RestoredFragments == 0 {
		t.Fatal("nothing restored after codec round trip")
	}
	if _, err := warm.Run(); err != nil {
		t.Fatal(err)
	}
	if warm.Machine().Reg != cold.Machine().Reg {
		t.Error("architectural state differs after snapshot round trip")
	}
}

// TestSnapshotMergeAcrossRuns: merging snapshots from two runs of the same
// program and restoring the merge must warm-start at least as well as either
// input alone (join semantics: the merge dominates both inputs).
func TestSnapshotMergeAcrossRuns(t *testing.T) {
	p := buildNestedLoop(t, 300, 25)
	s1 := New(p, replayConfig(SchemeNET, 5))
	s1.cfg.MaxSteps = 2000
	if _, err := s1.Run(); !errors.Is(err, vm.ErrStepLimit) {
		t.Fatal(err)
	}
	s2 := New(p, replayConfig(SchemeNET, 5))
	if _, err := s2.Run(); err != nil {
		t.Fatal(err)
	}
	merged, err := snapshot.Merge(s1.Snapshot(""), s2.Snapshot(""))
	if err != nil {
		t.Fatal(err)
	}
	warm := New(p, replayConfig(SchemeNET, 5))
	if err := warm.Restore(merged); err != nil {
		t.Fatal(err)
	}
	if warm.res.RestoredFragments < s2.res.Fragments {
		t.Errorf("merge restored %d fragments, full run had %d",
			warm.res.RestoredFragments, s2.res.Fragments)
	}
}
