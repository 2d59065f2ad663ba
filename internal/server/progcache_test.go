package server

import (
	"encoding/binary"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"netpath/internal/isa"
	"netpath/internal/prog"
	"netpath/internal/trace"
)

// countVerifies wraps s's verifier gate with a call counter. It must run
// before the first submission (the handler reads the hook unlocked).
func countVerifies(s *Server) *atomic.Int64 {
	var n atomic.Int64
	inner := s.progs.verify
	s.progs.verify = func(p *prog.Program) error {
		n.Add(1)
		return inner(p)
	}
	return &n
}

// mustRun submits body and fails the test on anything but a 200.
func mustRun(t *testing.T, url string, body map[string]any) *runResponse {
	t.Helper()
	code, rr, apiErr, _ := postRun(t, url, body)
	if code != http.StatusOK {
		t.Fatalf("status %d, err %+v", code, apiErr)
	}
	return rr
}

// TestProgCacheVerifiesOnce: resubmitting the same bytes as the same tenant
// verifies the program once; every later submission is a cache hit that
// runs the same program to the same result.
func TestProgCacheVerifiesOnce(t *testing.T) {
	s, ts := startServer(t, quietCfg(t))
	verifies := countVerifies(s)
	for range 3 {
		if rr := mustRun(t, ts.URL, map[string]any{"tenant": "a", "asm": countAsm}); rr.Regs[0] != 1000 {
			t.Fatalf("r0 = %d, want 1000", rr.Regs[0])
		}
	}
	if n := verifies.Load(); n != 1 {
		t.Fatalf("verifier ran %d times for three identical submissions; want 1", n)
	}
	if h, m := s.progs.hits.Load(), s.progs.misses.Load(); h != 2 || m != 1 {
		t.Fatalf("hits=%d misses=%d, want 2 and 1", h, m)
	}
}

// TestProgCacheTenantIsolation: byte-identical programs from two tenants
// resolve independently — two verifier runs, two resident programs — so
// neither tenant can observe the other's submissions through the cache.
func TestProgCacheTenantIsolation(t *testing.T) {
	s, ts := startServer(t, quietCfg(t))
	verifies := countVerifies(s)
	for _, tenant := range []string{"a", "b"} {
		mustRun(t, ts.URL, map[string]any{"tenant": tenant, "asm": countAsm})
	}
	if n := verifies.Load(); n != 2 {
		t.Fatalf("verifier ran %d times for two tenants; want 2", n)
	}
	if h := s.progs.hits.Load(); h != 0 {
		t.Fatalf("tenant b hit tenant a's entry (%d hits)", h)
	}
	var progs []*prog.Program
	for k, p := range s.progs.m {
		if k.tenant != "a" && k.tenant != "b" {
			t.Fatalf("unexpected tenant %q in key", k.tenant)
		}
		progs = append(progs, p)
	}
	if len(progs) != 2 || progs[0] == progs[1] {
		t.Fatalf("want two distinct resident programs, got %d", len(progs))
	}
}

// TestProgCacheRejectsNotCached: a verifier-rejected program is never
// cached, so every resubmission is verified and rejected again.
func TestProgCacheRejectsNotCached(t *testing.T) {
	s, ts := startServer(t, quietCfg(t))
	verifies := countVerifies(s)
	for i := range 3 {
		code, _, apiErr, _ := postRun(t, ts.URL, map[string]any{"tenant": "a", "asm": hangAsm})
		if code != http.StatusUnprocessableEntity || apiErr.Code != CodeVerify {
			t.Fatalf("submission %d: status %d err %+v, want 422 %s", i, code, apiErr, CodeVerify)
		}
	}
	if n := verifies.Load(); n != 3 {
		t.Fatalf("verifier ran %d times; want 3 (rejections are never cached)", n)
	}
	if n, _ := s.progs.stats(); n != 0 {
		t.Fatalf("%d programs cached after only rejections", n)
	}
}

// TestProgCacheQuotasOnHit: a hit skips verification, not the per-request
// quota checks.
func TestProgCacheQuotasOnHit(t *testing.T) {
	s, ts := startServer(t, quietCfg(t))
	mustRun(t, ts.URL, map[string]any{"tenant": "a", "asm": countAsm})
	q := s.cfg.Quotas
	for _, over := range []map[string]any{
		{"tenant": "a", "asm": countAsm, "max_steps": q.MaxSteps + 1},
		{"tenant": "a", "asm": countAsm, "deadline_ms": q.MaxDeadline.Milliseconds() + 1},
	} {
		code, _, apiErr, _ := postRun(t, ts.URL, over)
		if code != http.StatusUnprocessableEntity || apiErr.Code != CodeQuota {
			t.Fatalf("%v: status %d err %+v, want 422 %s", over, code, apiErr, CodeQuota)
		}
	}
	if h := s.progs.hits.Load(); h != 2 {
		t.Fatalf("over-quota resubmissions made %d hits; want 2", h)
	}
}

// TestProgCacheKeyFields: everything that shapes the resolved program is in
// the key — the asm name (it becomes the program's name), the benchmark
// scale, the form — and the tenant; identical submissions share a key.
func TestProgCacheKeyFields(t *testing.T) {
	key := func(body string) progKey {
		t.Helper()
		var r runRequest
		if err := json.Unmarshal([]byte(body), &r); err != nil {
			t.Fatal(err)
		}
		return r.programKey()
	}
	same := [][2]string{
		{`{"tenant":"a","asm":"x"}`, `{"tenant":"a","asm":"x"}`},
		{`{"tenant":"a","asm":"x"}`, `{"tenant":"a","asm":"x","name":"asm"}`},
		{`{"tenant":"a","prog":{"v":1},"name":"n"}`, `{"tenant":"a","prog":{"v":1}}`},
		{`{"tenant":"a","bench":"li","scale":0.5}`, `{"tenant":"a","bench":"li","scale":0.5,"max_steps":9}`},
	}
	for _, c := range same {
		if key(c[0]) != key(c[1]) {
			t.Errorf("%s and %s keyed apart", c[0], c[1])
		}
	}
	distinct := []string{
		`{"tenant":"a","asm":"x"}`,
		`{"tenant":"b","asm":"x"}`,
		`{"tenant":"a","asm":"x","name":"y"}`,
		`{"tenant":"a","asm":"y"}`,
		`{"tenant":"a","bench":"li","scale":0.5}`,
		`{"tenant":"a","bench":"li","scale":0.25}`,
		`{"tenant":"a","bench":"li"}`,
		`{"tenant":"a","bench":"go"}`,
		`{"tenant":"a","prog":"x"}`,
		`{"tenant":"a","prog":{"v":1}}`,
	}
	seen := map[progKey]string{}
	for _, b := range distinct {
		k := key(b)
		if prev, ok := seen[k]; ok {
			t.Errorf("%s and %s share a key", prev, b)
		}
		seen[k] = b
	}
}

// TestProgCacheDistinctNames: the same asm text under two names resolves to
// two programs, each answering under its own name.
func TestProgCacheDistinctNames(t *testing.T) {
	s, ts := startServer(t, quietCfg(t))
	for _, name := range []string{"x", "y", "x"} {
		if rr := mustRun(t, ts.URL, map[string]any{"tenant": "a", "asm": countAsm, "name": name}); rr.Name != name {
			t.Fatalf("response name %q, want %q", rr.Name, name)
		}
	}
	if n, _ := s.progs.stats(); n != 2 {
		t.Fatalf("%d programs resident, want 2", n)
	}
	if h := s.progs.hits.Load(); h != 1 {
		t.Fatalf("%d hits, want 1 (the second x)", h)
	}
}

// TestProgCacheEviction: FIFO eviction keeps resident words within the
// budget and the entry count within its cap.
func TestProgCacheEviction(t *testing.T) {
	c := newProgCache()
	key := func(i int) progKey {
		var k progKey
		binary.LittleEndian.PutUint64(k.sum[:], uint64(i))
		return k
	}
	big := make([]isa.Instr, progCacheMaxWords/3+1) // three never fit
	for i := range 10 {
		c.put(key(i), &prog.Program{Instrs: big})
		if n, w := c.stats(); w > progCacheMaxWords || n > 2 {
			t.Fatalf("after %d puts: %d programs, %d words (budget %d)", i+1, n, w, progCacheMaxWords)
		}
	}
	if _, ok := c.m[key(9)]; !ok {
		t.Fatal("newest program evicted")
	}
	if _, ok := c.m[key(7)]; ok {
		t.Fatal("FIFO kept an older program over a newer one")
	}
	if e := c.evictions.Load(); e != 8 {
		t.Fatalf("%d evictions, want 8", e)
	}

	tiny := make([]isa.Instr, 1)
	for i := range progCacheMaxEntries + 100 {
		c.put(key(100+i), &prog.Program{Instrs: tiny})
	}
	if n, w := c.stats(); n != progCacheMaxEntries || w != progCacheMaxEntries {
		t.Fatalf("%d programs, %d words after a stream of tiny programs; want %d of each",
			n, w, progCacheMaxEntries)
	}
}

// TestProgCacheConcurrent: concurrent submissions of one program resolve
// cleanly (run under -race) and leave one resident program behind.
func TestProgCacheConcurrent(t *testing.T) {
	cfg := quietCfg(t)
	cfg.QueueDepth = 64
	cfg.QueueDepthPerTenant = 64
	s, ts := startServer(t, cfg)
	verifies := countVerifies(s)
	const clients, each = 8, 4
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range each {
				code, rr, apiErr, _ := postRun(t, ts.URL, map[string]any{"tenant": "a", "asm": countAsm})
				if code != http.StatusOK || rr.Regs[0] != 1000 {
					t.Errorf("status %d err %+v", code, apiErr)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n, _ := s.progs.stats(); n != 1 {
		t.Fatalf("%d programs resident, want 1", n)
	}
	h, m := s.progs.hits.Load(), s.progs.misses.Load()
	if h+m != clients*each || m < 1 || verifies.Load() != m {
		t.Fatalf("hits=%d misses=%d verifies=%d over %d submissions", h, m, verifies.Load(), clients*each)
	}
}

// TestProgCacheObservability: the verify span's site tells a hit from a
// miss, and /statusz reports the hit ratio.
func TestProgCacheObservability(t *testing.T) {
	cfg := quietCfg(t)
	cfg.TraceStore = 8
	cfg.TraceSample = 1
	_, ts := startServer(t, cfg)
	for i, wantSite := range []int32{0, verifySiteHit, verifySiteHit, verifySiteHit} {
		rr := mustRun(t, ts.URL, map[string]any{"tenant": "a", "asm": countAsm})
		d := fetchTrace(t, ts.URL, rr.TraceID)
		if d == nil {
			t.Fatalf("run %d: trace %s not retained", i, rr.TraceID)
		}
		byKind, _ := spanIndex(d)
		v := byKind[trace.SpanVerify.String()]
		if len(v) != 1 || v[0].Site != wantSite {
			t.Fatalf("run %d: verify spans %+v, want one with site %d", i, v, wantSite)
		}
	}

	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc statuszDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	pc := doc.ProgCache
	if pc.Hits != 3 || pc.Misses != 1 || pc.HitRatio != 0.75 || pc.Programs != 1 || pc.Instrs == 0 {
		t.Fatalf("/statusz prog_cache = %+v, want 3 hits, 1 miss, ratio 0.75, 1 program", pc)
	}
}
