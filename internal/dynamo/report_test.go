package dynamo

import (
	"strings"
	"testing"

	"netpath/internal/prog"
)

func TestCacheStatsAndDump(t *testing.T) {
	sys := New(hotLoop(30_000), DefaultConfig(SchemeNET, 20))
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	stats := sys.CacheStats()
	if len(stats) == 0 {
		t.Fatal("no resident fragments after a hot loop")
	}
	for i := 1; i < len(stats); i++ {
		if stats[i-1].Enters < stats[i].Enters {
			t.Fatal("CacheStats not sorted by enters")
		}
	}
	top := stats[0]
	if top.Enters == 0 {
		t.Error("hottest fragment never entered")
	}
	if top.CompletionRate() < 0 || top.CompletionRate() > 1 {
		t.Errorf("completion rate %f out of range", top.CompletionRate())
	}
	if top.Emitted > top.Len {
		t.Error("emitted length exceeds trace length")
	}

	dump := sys.DumpCache(3)
	if !strings.Contains(dump, "fragment cache:") || !strings.Contains(dump, "enters=") {
		t.Errorf("DumpCache output malformed:\n%s", dump)
	}
	// n <= 0 dumps everything.
	all := sys.DumpCache(0)
	if strings.Count(all, "@") < strings.Count(dump, "@") {
		t.Error("DumpCache(0) must include at least as many fragments")
	}
}

func TestOptimizerStatsExposed(t *testing.T) {
	sys := New(hotLoop(30_000), DefaultConfig(SchemeNET, 20))
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	opt := sys.OptimizerStats()
	if opt.FoldedOps == 0 && opt.DeadRemoved == 0 && opt.LoadsRemoved == 0 {
		t.Error("hotLoop is built to exercise the optimizer; no eliminations recorded")
	}
}

func TestCacheStatsTieOrdering(t *testing.T) {
	// Equal-enter fragments must sort by start address ascending so the
	// report order (and DumpCache output) is deterministic run to run. The
	// cache is indexed by guest address, so the program must span the
	// planted starts.
	b := prog.NewBuilder("straight")
	m := b.Func("main")
	for i := 0; i < 100; i++ {
		m.MovI(0, int64(i))
	}
	m.Halt()
	sys := New(b.MustBuild(), DefaultConfig(SchemeNET, 1000))
	for _, f := range []*Fragment{
		{Start: 90, Enters: 5},
		{Start: 10, Enters: 5},
		{Start: 50, Enters: 5},
		{Start: 70, Enters: 9},
	} {
		sys.cache.put(f.Start, f)
	}
	stats := sys.CacheStats()
	wantStarts := []int{70, 10, 50, 90}
	if len(stats) != len(wantStarts) {
		t.Fatalf("got %d stats, want %d", len(stats), len(wantStarts))
	}
	for i, want := range wantStarts {
		if stats[i].Start != want {
			t.Errorf("stats[%d].Start = %d, want %d (enters=%d)",
				i, stats[i].Start, want, stats[i].Enters)
		}
	}
}

func TestOptimizerStatsSurviveFlush(t *testing.T) {
	// A tiny fragment cache forces capacity flushes; the optimizer's
	// elimination counters are per-System and must accumulate across them.
	cfg := DefaultConfig(SchemeNET, 10)
	cfg.MaxFragments = 2
	cfg.FlushWindow = 0
	cfg.BailoutAfter = 0
	sys := New(multiPhase(4, 2_000, 10), cfg)
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Flushes == 0 {
		t.Fatal("capacity 2 with 4 hot loops must force at least one flush")
	}
	opt := sys.OptimizerStats()
	if opt.FoldedOps == 0 && opt.DeadRemoved == 0 && opt.LoadsRemoved == 0 {
		t.Error("optimizer counters reset by cache flush; they must persist")
	}
	if len(sys.CacheStats()) > cfg.MaxFragments {
		t.Errorf("%d resident fragments exceed MaxFragments=%d after flush",
			len(sys.CacheStats()), cfg.MaxFragments)
	}
}

func TestEmptyCacheStats(t *testing.T) {
	// A program too short to trigger selection leaves the cache empty.
	sys := New(hotLoop(3), DefaultConfig(SchemeNET, 1000))
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sys.CacheStats()) != 0 {
		t.Error("expected an empty cache")
	}
	if !strings.Contains(sys.DumpCache(5), "0 resident") {
		t.Error("DumpCache must report an empty cache")
	}
}
