package dynamo

import (
	"testing"

	"netpath/internal/prog"
	"netpath/internal/snapshot"
	"netpath/internal/workload"
)

// buildBench builds a named benchmark at scale.
func buildBench(t *testing.T, name string, scale float64) *prog.Program {
	t.Helper()
	b, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Build(scale)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// profileSums totals a stored profile's head and path counts.
func profileSums(s *snapshot.Snapshot) (heads, paths int64) {
	for _, h := range s.Heads {
		heads += h.Count
	}
	for _, p := range s.Paths {
		paths += p.Count
	}
	return heads, paths
}

// TestRestoreThenSnapshotPersistsNoPrior: a snapshot persists what the run
// observed, so one taken straight after Restore — before any guest
// instruction — carries no head or path counts and zero trace flow, although
// Restore seeded all of them.
func TestRestoreThenSnapshotPersistsNoPrior(t *testing.T) {
	for _, scheme := range []Scheme{SchemeNET, SchemePathProfile} {
		t.Run(scheme.String(), func(t *testing.T) {
			p := buildBench(t, "compress", 0.01)
			cfg := DefaultConfig(scheme, 50)
			cold := New(p, cfg)
			if _, err := cold.Run(); err != nil {
				t.Fatal(err)
			}
			snap := cold.Snapshot("")
			if len(snap.Traces) == 0 || (len(snap.Heads) == 0 && len(snap.Paths) == 0) {
				t.Fatal("cold run's snapshot is empty; program too cold")
			}

			warm := New(p, cfg)
			if err := warm.Restore(snap); err != nil {
				t.Fatal(err)
			}
			seeded := warm.res.RestoredHeads
			if scheme == SchemePathProfile {
				seeded = warm.res.RestoredPaths
			}
			if seeded == 0 || warm.res.RestoredFragments == 0 {
				t.Fatalf("Restore seeded %d counters and %d fragments; want both > 0",
					seeded, warm.res.RestoredFragments)
			}
			again := warm.Snapshot("")
			if len(again.Heads) != 0 || len(again.Paths) != 0 {
				t.Errorf("unrun restore persisted %d heads and %d paths; want none",
					len(again.Heads), len(again.Paths))
			}
			for _, tr := range again.Traces {
				if tr.Flow != 0 {
					t.Errorf("trace @%d persisted flow %d from the prior; want 0", tr.Start, tr.Flow)
				}
			}
		})
	}
}

// TestWarmChainFixedPoint: a chain of restore → run → snapshot → merge rounds
// must converge. Restored counts still count toward τ inside each run, but
// a snapshot never re-persists them, so the stored profile settles on the
// single-run hot set instead of gaining one run's counts per round (which
// would make every head that runs at all hot after about τ rounds).
func TestWarmChainFixedPoint(t *testing.T) {
	const rounds, settled = 12, 3
	for _, bench := range []string{"compress", "li", "m88ksim"} {
		for _, scheme := range []Scheme{SchemeNET, SchemePathProfile} {
			t.Run(bench+"/"+scheme.String(), func(t *testing.T) {
				p := buildBench(t, bench, 0.01)
				cfg := DefaultConfig(scheme, 50)
				var stored *snapshot.Snapshot
				type round struct {
					traces       []int
					heads, paths int64
				}
				var hist []round
				for i := 0; i < rounds; i++ {
					sys := New(p, cfg)
					if stored != nil {
						if err := sys.Restore(stored); err != nil {
							t.Fatalf("round %d: Restore: %v", i, err)
						}
					}
					if _, err := sys.Run(); err != nil {
						t.Fatalf("round %d: %v", i, err)
					}
					if stored == nil {
						stored = sys.Snapshot("")
					} else {
						var err error
						if stored, err = snapshot.Merge(stored, sys.Snapshot("")); err != nil {
							t.Fatal(err)
						}
					}
					r := round{}
					for _, tr := range stored.Traces {
						r.traces = append(r.traces, tr.Start)
					}
					r.heads, r.paths = profileSums(stored)
					hist = append(hist, r)
				}
				first, last := hist[0], hist[rounds-1]
				t.Logf("traces %d → %d, heads %d → %d, paths %d → %d",
					len(first.traces), len(last.traces), first.heads, last.heads, first.paths, last.paths)
				for _, r := range hist[rounds-settled : rounds-1] {
					if len(r.traces) != len(last.traces) || r.heads != last.heads || r.paths != last.paths {
						t.Fatalf("stored profile still growing in the last %d rounds: %d traces, heads %d, paths %d → %d traces, heads %d, paths %d",
							settled, len(r.traces), r.heads, r.paths, len(last.traces), last.heads, last.paths)
					}
					for i := range r.traces {
						if r.traces[i] != last.traces[i] {
							t.Fatalf("stored trace set changed in the last %d rounds", settled)
						}
					}
				}
			})
		}
	}
}

// TestWarmCompletionRate: CacheStats reports this run's completions, so a
// warm start's restored flow can never push a completion rate past 100%.
func TestWarmCompletionRate(t *testing.T) {
	for _, tier2 := range []bool{false, true} {
		p := buildBench(t, "compress", 0.05)
		cfg := DefaultConfig(SchemeNET, 50)
		if tier2 {
			tc := NewTier2Compiler(1, 16)
			defer tc.Close()
			cfg.Tier2 = tc
		}
		cold := New(p, cfg)
		if _, err := cold.Run(); err != nil {
			t.Fatal(err)
		}
		warm := New(p, cfg)
		if err := warm.Restore(cold.Snapshot("")); err != nil {
			t.Fatal(err)
		}
		if _, err := warm.Run(); err != nil {
			t.Fatal(err)
		}
		if warm.res.RestoredFragments == 0 {
			t.Fatal("warm run restored nothing")
		}
		for _, st := range warm.CacheStats() {
			if r := st.CompletionRate(); r > 1 {
				t.Errorf("tier2=%v: fragment @%d completed %d of %d entries (%.0f%%)",
					tier2, st.Start, st.Completions, st.Enters, 100*r)
			}
		}
	}
}

// TestHeadTablePrior: a seeded count is a prior that observed excludes, and
// it is forgotten when selection zeroes the counter or CLOCK recycles the
// slot — from then on every count is the run's own.
func TestHeadTablePrior(t *testing.T) {
	slotOf := func(ht *headTable, key int) int {
		i, ok := ht.slot(key)
		if !ok {
			t.Fatalf("head %d has no counter", key)
		}
		return i
	}
	ht := newHeadTable(0)
	ht.seed(10, 40)
	ht.add(10, 3)
	if got := ht.observed(slotOf(ht, 10)); got != 3 {
		t.Fatalf("observed after seed 40 + 3 hits = %d, want 3", got)
	}
	ht.zero(10)
	ht.add(10, 5)
	if got := ht.observed(slotOf(ht, 10)); got != 5 {
		t.Fatalf("observed after selection + 5 hits = %d, want 5", got)
	}

	one := newHeadTable(1)
	one.seed(10, 40)
	one.add(30, 2) // recycles head 10's slot
	if got := one.observed(slotOf(one, 30)); got != 2 {
		t.Fatalf("observed in a recycled slot = %d, want 2 (the evicted head's prior leaked)", got)
	}

	if cold := newHeadTable(0); cold.add(1, 1) != 1 || cold.prior != nil {
		t.Fatal("a table that was never seeded must not allocate prior storage")
	}
}
