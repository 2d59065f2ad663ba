package server

import (
	"context"
	"slices"
	"testing"
	"time"

	"netpath/internal/dynamo"
	"netpath/internal/telemetry"
	"netpath/internal/vm"
	"netpath/internal/workload"
)

// tier2Settle waits until the shared compiler has compiled or rejected every
// admitted promotion, then returns the server's promotions so far, admitted
// or dropped at the full queue. promos is the engine's promotion counter
// and base its value when the server started.
func tier2Settle(t *testing.T, s *Server, promos *telemetry.Counter, base int64) int64 {
	t.Helper()
	c := s.tier2
	admitted := promos.Value() - base
	for end := time.Now().Add(20 * time.Second); c.Compiled()+c.Rejected() < admitted; time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("tier-2 compiler did not settle: compiled=%d rejected=%d, %d admitted",
				c.Compiled(), c.Rejected(), admitted)
		}
	}
	return admitted + c.Dropped()
}

// TestWarmStartPromotionBounded: a warm-started run must not recompile the
// world. Restored flow is a prior, not promotion evidence, so a warm run
// promotes only its persisted tier-2 decisions plus what it proves hot
// itself — never every restored fragment on its first completion. One
// tenant submits one program cold, then ten times warm; each warm run's
// promotions stay within the cold run's promotions plus the decisions it
// restored, and every response matches a plain-VM reference. vortex caches
// many fragments of which few are dominant, so counting restored flow as
// evidence breaks the bound on the first warm run.
func TestWarmStartPromotionBounded(t *testing.T) {
	const (
		bench = "vortex"
		scale = 0.01
		warm  = 10
	)
	b, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Build(scale)
	if err != nil {
		t.Fatal(err)
	}
	ref := vm.New(p)
	if err := ref.RunContext(context.Background(), 1<<40); err != nil {
		t.Fatalf("plain VM reference: %v", err)
	}

	cfg := quietCfg(t)
	cfg.Tier2 = true
	cfg.Tier2Workers = 1
	cfg.SnapshotLimit = 8
	s, ts := startServer(t, cfg)

	promos := telemetry.Def.Counter("dynamo_tier2_promotions_total", "")
	base := promos.Value()
	key := snapKey{tenant: "storm", fp: p.Fingerprint(), scheme: dynamo.SchemeNET.String()}
	var seen int64
	run := func(i int) (promoted int64, restored int) {
		t.Helper()
		status, rr, apiErr, _ := postRun(t, ts.URL, map[string]any{
			"tenant": "storm", "bench": bench, "scale": scale,
		})
		if apiErr != nil || rr == nil {
			t.Fatalf("run %d: status=%d err=%v", i, status, apiErr)
		}
		if rr.Mode != "dynamo" || rr.Steps != ref.Steps || !slices.Equal(rr.Regs, ref.Reg[:]) {
			t.Fatalf("run %d: mode %s steps %d, registers differ from plain VM (steps %d)",
				i, rr.Mode, rr.Steps, ref.Steps)
		}
		// Every promotion of the run is enqueued or dropped before the
		// response is written; wait for the compiler to settle them, so
		// the next run restores a settled profile.
		total := tier2Settle(t, s, promos, base)
		promoted, seen = total-seen, total
		return promoted, rr.Restored
	}

	cold, restored := run(0)
	if restored != 0 {
		t.Fatalf("first run restored %d fragments; want a cold start", restored)
	}
	if cold == 0 {
		t.Fatal("cold run promoted nothing; the test program is too cold to exercise tier 2")
	}
	if s.snaps.get(key) == nil {
		t.Fatal("cold run left no profile in the store")
	}
	var total int64
	for i := 1; i <= warm; i++ {
		var decided int64
		for _, tr := range s.snaps.get(key).Traces {
			if tr.Tier2 {
				decided++
			}
		}
		n, restored := run(i)
		if restored == 0 {
			t.Fatalf("warm run %d restored nothing", i)
		}
		if n > cold+decided {
			t.Errorf("warm run %d promoted %d fragments; want ≤ %d (cold run's %d + %d persisted decisions)",
				i, n, cold+decided, cold, decided)
		}
		total += n
	}
	t.Logf("promotions: cold %d, %d warm runs %d", cold, warm, total)
}

// TestWarmStartProfileBounded: a warm run's snapshot persists only what
// the run itself observed — never the counts Restore seeded — so merging it
// back cannot grow the stored profile by one run's counts per request. One
// tenant submits one program cold, then twenty times warm; the stored
// profile's trace count and summed head counts stay within a small multiple
// of the cold run's, and every response matches a plain-VM reference.
// Re-persisting the prior makes every head that runs at all hot after about
// τ requests, which breaks the bound well before the last one.
func TestWarmStartProfileBounded(t *testing.T) {
	const (
		bench = "m88ksim"
		scale = 0.01
		warm  = 20
		bound = 3 // stored profile ≤ bound × the cold run's
	)
	b, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Build(scale)
	if err != nil {
		t.Fatal(err)
	}
	ref := vm.New(p)
	if err := ref.RunContext(context.Background(), 1<<40); err != nil {
		t.Fatalf("plain VM reference: %v", err)
	}

	cfg := quietCfg(t)
	cfg.Tier2 = true
	cfg.Tier2Workers = 1
	cfg.SnapshotLimit = 8
	s, ts := startServer(t, cfg)
	key := snapKey{tenant: "bloat", fp: p.Fingerprint(), scheme: dynamo.SchemeNET.String()}
	stored := func() (traces int, heads int64) {
		sn := s.snaps.get(key)
		if sn == nil {
			t.Fatal("no profile in the store")
		}
		for _, h := range sn.Heads {
			heads += h.Count
		}
		return len(sn.Traces), heads
	}

	var coldTraces int
	var coldHeads int64
	for i := 0; i <= warm; i++ {
		status, rr, apiErr, _ := postRun(t, ts.URL, map[string]any{
			"tenant": "bloat", "bench": bench, "scale": scale,
		})
		if apiErr != nil || rr == nil {
			t.Fatalf("run %d: status=%d err=%v", i, status, apiErr)
		}
		if rr.Mode != "dynamo" || rr.Steps != ref.Steps || !slices.Equal(rr.Regs, ref.Reg[:]) {
			t.Fatalf("run %d: mode %s steps %d, registers differ from plain VM (steps %d)",
				i, rr.Mode, rr.Steps, ref.Steps)
		}
		if (i == 0) != (rr.Restored == 0) {
			t.Fatalf("run %d restored %d fragments; want a cold first run and warm runs after", i, rr.Restored)
		}
		traces, heads := stored()
		if i == 0 {
			coldTraces, coldHeads = traces, heads
			if coldTraces == 0 || coldHeads == 0 {
				t.Fatal("cold run stored an empty profile; the test program is too cold")
			}
			continue
		}
		if traces > bound*coldTraces || heads > bound*coldHeads {
			t.Fatalf("after warm run %d the stored profile holds %d traces and %d head counts; want ≤ %d× the cold run's %d and %d",
				i, traces, heads, bound, coldTraces, coldHeads)
		}
		if i == warm {
			t.Logf("stored profile: cold %d traces / %d head counts, after %d warm runs %d / %d",
				coldTraces, coldHeads, warm, traces, heads)
		}
	}
}
