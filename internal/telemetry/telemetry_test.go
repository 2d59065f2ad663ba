package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterShardsSum(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "help")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		s := r.NewSink()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Inc(c)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("Value = %d, want 8000", got)
	}
}

func TestRegistryIdempotentAndKindSafe(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x", "h")
	b := r.Counter("x", "different help ignored")
	if a != b {
		t.Fatal("re-registering a counter name must return the same counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering a name as a different kind must panic")
		}
	}()
	r.Gauge("x", "h")
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("occ", "")
	g.Set(7)
	g.Max(3)
	if g.Value() != 7 {
		t.Fatalf("Max(3) lowered the gauge: %d", g.Value())
	}
	g.Max(10)
	if g.Value() != 10 {
		t.Fatalf("Max(10) = %d, want 10", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("sizes", "")
	for _, v := range []int64{0, 1, 2, 3, 4, 5, 1000, int64(1) << 40} {
		h.Observe(v)
	}
	if h.Count() != 8 {
		t.Fatalf("Count = %d, want 8", h.Count())
	}
	wantSum := int64(0+1+2+3+4+5+1000) + int64(1)<<40
	if h.Sum() != wantSum {
		t.Fatalf("Sum = %d, want %d", h.Sum(), wantSum)
	}
	// Bucket invariants: v=2 lands in the le=2 bucket, v=3,4 in le=4.
	if got := h.buckets[1].Load(); got != 1 {
		t.Errorf("le=2 bucket = %d, want 1", got)
	}
	if got := h.buckets[2].Load(); got != 2 {
		t.Errorf("le=4 bucket = %d, want 2", got)
	}
	// The overflow bucket absorbs the huge value.
	if got := h.buckets[histBuckets-1].Load(); got != 1 {
		t.Errorf("overflow bucket = %d, want 1", got)
	}
}

func TestBucketOf(t *testing.T) {
	cases := map[int64]int{-5: 0, 0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4}
	for v, want := range cases {
		if got := bucketOf(v); got != want {
			t.Errorf("bucketOf(%d) = %d, want %d", v, got, want)
		}
	}
	if got := bucketOf(int64(1) << 62); got != histBuckets-1 {
		t.Errorf("bucketOf(2^62) = %d, want overflow bucket %d", got, histBuckets-1)
	}
}

// TestZeroAllocWritePath pins the tentpole claim: the enabled hot path —
// counter add, histogram observe, gauge set — allocates nothing.
func TestZeroAllocWritePath(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hot_total", "")
	h := r.Histogram("hot_sizes", "")
	g := r.Gauge("hot_occ", "")
	s := r.NewSink()
	i := int64(0)
	got := testing.AllocsPerRun(10000, func() {
		s.Add(c, 1)
		s.Observe(h, i%257)
		s.Set(g, i)
		i++
	})
	if got != 0 {
		t.Fatalf("telemetry write path allocates %v allocs/op, want 0", got)
	}
}

func TestProgressReports(t *testing.T) {
	r := NewRegistry()
	done := r.Counter("done", "")
	planned := r.Counter("planned", "")
	planned.Add(10)
	done.Add(4)
	var buf syncBuffer
	p := StartProgress(&buf, "sweep", done, planned, time.Millisecond)
	time.Sleep(20 * time.Millisecond)
	p.Stop()
	out := buf.String()
	if !strings.Contains(out, "sweep: 4/10 cells (40.0%)") {
		t.Fatalf("progress output missing cells/percent line:\n%s", out)
	}
	if !strings.Contains(out, "eta") {
		t.Fatalf("progress output missing ETA:\n%s", out)
	}
	if StartProgress(&buf, "off", done, planned, 0) != nil {
		t.Fatal("interval <= 0 must disable progress")
	}
	(*Progress)(nil).Stop() // must not panic
}

// syncBuffer is a mutex-guarded bytes.Buffer: the progress goroutine writes
// while the test reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestHistogramQuantile(t *testing.T) {
	h := NewRegistry().Histogram("q_test", "")
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
	// 1000 observations of 100: every quantile lands in the (64,128] bucket.
	for i := 0; i < 1000; i++ {
		h.Observe(100)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		v := h.Quantile(q)
		if v <= 64 || v > 128 {
			t.Errorf("Quantile(%v) = %d, want within (64,128]", q, v)
		}
	}
	// A bimodal distribution: 90% at ~10, 10% at ~1000. p50 must sit in the
	// low mode's bucket, p99 in the high mode's.
	h2 := NewRegistry().Histogram("q_test2", "")
	for i := 0; i < 900; i++ {
		h2.Observe(10)
	}
	for i := 0; i < 100; i++ {
		h2.Observe(1000)
	}
	if v := h2.Quantile(0.5); v <= 8 || v > 16 {
		t.Errorf("bimodal p50 = %d, want within (8,16]", v)
	}
	if v := h2.Quantile(0.99); v <= 512 || v > 1024 {
		t.Errorf("bimodal p99 = %d, want within (512,1024]", v)
	}
	// Quantiles are monotone in q.
	last := int64(0)
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.95, 1} {
		v := h2.Quantile(q)
		if v < last {
			t.Errorf("Quantile not monotone at %v: %d < %d", q, v, last)
		}
		last = v
	}
	// Everything in the overflow bucket: the estimate is its lower bound.
	h3 := NewRegistry().Histogram("q_test3", "")
	h3.Observe(1 << 40)
	if v := h3.Quantile(0.9); v != UpperBound(histBuckets-2) {
		t.Errorf("overflow quantile = %d, want %d", v, UpperBound(histBuckets-2))
	}
}
