package dynamo

import (
	"fmt"
	"sort"
	"strings"
)

// FragmentStat summarizes one resident fragment for inspection.
type FragmentStat struct {
	Start       int
	Len         int
	Emitted     int
	Enters      int64
	Completions int64
	EarlyExits  int64
}

// CompletionRate returns the fraction of entries that ran the fragment to
// its end (the trace-selection quality signal: a well-chosen trace is
// followed to completion most of the time).
func (f FragmentStat) CompletionRate() float64 {
	if f.Enters == 0 {
		return 0
	}
	return float64(f.Completions) / float64(f.Enters)
}

// CacheStats returns statistics for the fragments currently resident in the
// cache, sorted by entry count (hottest first, ties by address).
func (s *System) CacheStats() []FragmentStat {
	out := make([]FragmentStat, 0, len(s.cache))
	for _, fr := range s.cache {
		out = append(out, FragmentStat{
			Start:       fr.Start,
			Len:         fr.Len(),
			Emitted:     fr.EmittedLen(),
			Enters:      fr.Enters,
			Completions: fr.Completions,
			EarlyExits:  fr.EarlyExits,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Enters != out[j].Enters {
			return out[i].Enters > out[j].Enters
		}
		return out[i].Start < out[j].Start
	})
	return out
}

// DumpCache renders the top n resident fragments (n <= 0: all).
func (s *System) DumpCache(n int) string {
	stats := s.CacheStats()
	if n > 0 && n < len(stats) {
		stats = stats[:n]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "fragment cache: %d resident\n", len(s.cache))
	for _, st := range stats {
		fmt.Fprintf(&b, "  @%-6d len=%-3d emitted=%-3d enters=%-9d completed=%.0f%% early-exits=%d\n",
			st.Start, st.Len, st.Emitted, st.Enters, 100*st.CompletionRate(), st.EarlyExits)
	}
	return b.String()
}

// OptimizerStats exposes the per-pass elimination counters accumulated over
// every trace this system optimized (all zero under DisableOptimizer).
func (s *System) OptimizerStats() Optimizer {
	if s.opt == nil {
		return Optimizer{}
	}
	return *s.opt
}
