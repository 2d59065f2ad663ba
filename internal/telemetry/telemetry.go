// Package telemetry is the zero-allocation observability layer of the
// VM → Dynamo → predictor stack. The paper's thesis — profiling overhead
// decides whether hot path prediction pays off — applies to the system's own
// introspection too: observability must itself obey "less is more", so every
// hot-path primitive here is a handful of atomic word operations on
// preallocated state, and the fully disabled path (no Sink installed) costs
// the caller exactly one nil check.
//
// The pieces:
//
//   - Counter: a sharded atomic counter. Each parallel worker (one Sink per
//     dynamo.System / pipeline cell) writes its own cache-line-padded shard,
//     so the experiment grid aggregates per-cell counts without bouncing a
//     shared line; Value sums the shards on read.
//   - Gauge: a single atomic last-write-wins value (table occupancy).
//   - Histogram: a bounded power-of-two-bucket distribution (path lengths,
//     fragment sizes, head-counter values at promotion).
//   - Registry: the named home of all of the above, exported as a versioned
//     JSON snapshot, Prometheus text, and expvar (see export.go, http.go).
//
// Instrumented packages declare their instruments at init against the
// process-wide Def registry and write through a *Sink. A nil *Sink disables
// every site; the write path never allocates.
package telemetry

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// numShards is the counter shard count. Shards are assigned to Sinks
// round-robin; the experiment pool runs up to GOMAXPROCS workers, and 8
// padded shards keep simultaneous writers off each other's cache lines
// without bloating every counter (8 shards × 64 B = 512 B per counter).
const numShards = 8

// shardPad pads each shard to its own cache line.
type shardPad struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing sharded counter. The zero value is
// unusable; obtain one from a Registry (or the package-level NewCounter).
type Counter struct {
	name   string
	help   string
	shards [numShards]shardPad
}

// Name returns the counter's stable registered name.
func (c *Counter) Name() string { return c.name }

// Add adds d to the counter through shard 0. Use Sink.Add on hot paths so
// concurrent workers write distinct shards.
func (c *Counter) Add(d int64) { c.shards[0].v.Add(d) }

// Inc increments the counter by one through shard 0.
func (c *Counter) Inc() { c.shards[0].v.Add(1) }

// addShard adds d to one shard; the Sink write path.
func (c *Counter) addShard(shard uint32, d int64) {
	c.shards[shard&(numShards-1)].v.Add(d)
}

// Value returns the current total across shards.
func (c *Counter) Value() int64 {
	var t int64
	for i := range c.shards {
		t += c.shards[i].v.Load()
	}
	return t
}

// Gauge is a last-write-wins instantaneous value (e.g. table occupancy).
type Gauge struct {
	name string
	help string
	v    atomic.Int64
}

// Name returns the gauge's stable registered name.
func (g *Gauge) Name() string { return g.name }

// Set stores the current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Max raises the gauge to v if v is larger (high-water marks).
func (g *Gauge) Max(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the fixed bucket count of every histogram: bucket i counts
// observations v with 2^(i-1) < v <= 2^i (bucket 0 counts v <= 1), and the
// last bucket absorbs everything larger — a bounded distribution sketch that
// never grows and never allocates on observe.
const histBuckets = 24

// Histogram is a bounded power-of-two histogram. Observations are three
// atomic adds (bucket, count, sum); precision above 2^(histBuckets-1) folds
// into the overflow bucket.
type Histogram struct {
	name    string
	help    string
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// Name returns the histogram's stable registered name.
func (h *Histogram) Name() string { return h.name }

// bucketOf maps an observation to its bucket index.
func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	b := bits.Len64(uint64(v - 1)) // ceil(log2 v)
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// Observe records one observation.
func (h *Histogram) Observe(v int64) {
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// UpperBound returns bucket i's inclusive upper bound (the last bucket is
// unbounded and reports -1).
func UpperBound(i int) int64 {
	if i >= histBuckets-1 {
		return -1
	}
	return int64(1) << uint(i)
}

// Quantile estimates the q-quantile (q in [0,1]) of the recorded
// distribution by linear interpolation within the power-of-two bucket that
// crosses the target rank. With at most 2x-wide buckets the estimate is
// within a factor of 2 of the true value — plenty for the p50/p95/p99 a
// status page reports. Returns 0 on an empty histogram. The read races
// concurrent observes benignly: each bucket load is atomic, and a torn
// cross-bucket view can only misplace the estimate by in-flight
// observations.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := int64(0)
	for i := 0; i < histBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			lo := int64(0)
			if i > 0 {
				lo = UpperBound(i - 1)
			}
			hi := UpperBound(i)
			if hi < 0 { // overflow bucket: no upper bound to interpolate to
				return lo
			}
			frac := (rank - float64(cum)) / float64(n)
			return lo + int64(frac*float64(hi-lo)+0.5)
		}
		cum += n
	}
	return UpperBound(histBuckets - 2)
}

// Registry owns named instruments. Registration is
// mutex-guarded and idempotent by name; the read/write paths of the
// instruments themselves are lock-free.
type Registry struct {
	mu     sync.Mutex
	byName map[string]any
	order  []string // registration order, for stable iteration before sort

	nextShard atomic.Uint32
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]any)}
}

// Def is the process-wide default registry. Instrumented packages register
// their instruments here at init; an idle registry costs nothing until a
// Sink writes into it.
var Def = NewRegistry()

// active reports whether the process opted into telemetry collection
// (serving -telemetry-addr, or a bench harness measuring the enabled path).
// Pipeline code uses it to decide whether to hand Sinks to the systems it
// spawns; instrument writes themselves are gated only by their Sink.
var active atomic.Bool

// SetActive records the process-wide opt-in.
func SetActive(on bool) { active.Store(on) }

// Active reports the process-wide opt-in.
func Active() bool { return active.Load() }

// Counter returns the counter registered under name, creating it if needed.
// Re-registering a name as a different instrument kind panics: names are the
// stable exported identity and must not collide.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if got, ok := r.byName[name]; ok {
		c, ok := got.(*Counter)
		if !ok {
			panic("telemetry: " + name + " already registered as a different kind")
		}
		return c
	}
	c := &Counter{name: name, help: help}
	r.byName[name] = c
	r.order = append(r.order, name)
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if got, ok := r.byName[name]; ok {
		g, ok := got.(*Gauge)
		if !ok {
			panic("telemetry: " + name + " already registered as a different kind")
		}
		return g
	}
	g := &Gauge{name: name, help: help}
	r.byName[name] = g
	r.order = append(r.order, name)
	return g
}

// Histogram returns the histogram registered under name, creating it if
// needed.
func (r *Registry) Histogram(name, help string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if got, ok := r.byName[name]; ok {
		h, ok := got.(*Histogram)
		if !ok {
			panic("telemetry: " + name + " already registered as a different kind")
		}
		return h
	}
	h := &Histogram{name: name, help: help}
	r.byName[name] = h
	r.order = append(r.order, name)
	return h
}

// NewCounter registers a counter in the default registry.
func NewCounter(name, help string) *Counter { return Def.Counter(name, help) }

// NewGauge registers a gauge in the default registry.
func NewGauge(name, help string) *Gauge { return Def.Gauge(name, help) }

// NewHistogram registers a histogram in the default registry.
func NewHistogram(name, help string) *Histogram { return Def.Histogram(name, help) }

// instruments returns the registered instruments sorted by name, split by
// kind (the exporters' stable iteration order).
func (r *Registry) instruments() (cs []*Counter, gs []*Gauge, hs []*Histogram) {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	byName := make(map[string]any, len(names))
	for _, n := range names {
		byName[n] = r.byName[n]
	}
	r.mu.Unlock()
	sortStrings(names)
	for _, n := range names {
		switch v := byName[n].(type) {
		case *Counter:
			cs = append(cs, v)
		case *Gauge:
			gs = append(gs, v)
		case *Histogram:
			hs = append(hs, v)
		}
	}
	return cs, gs, hs
}

// sortStrings is an insertion sort: instrument counts are tens, and keeping
// the package stdlib-lean beats pulling in sort for one call site.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Sink is a per-worker write handle: it pins a counter shard (assigned
// round-robin at creation). One Sink
// per dynamo.System / pipeline cell keeps parallel workers on distinct
// cache lines. A nil *Sink is the disabled state; every method is safe to
// skip behind a single nil check and the write path never allocates.
type Sink struct {
	reg   *Registry
	shard uint32
}

// NewSink returns a write handle on the registry. Returns a valid Sink from
// a nil registry too, bound to Def, so callers can unconditionally build one.
func (r *Registry) NewSink() *Sink {
	if r == nil {
		r = Def
	}
	return &Sink{reg: r, shard: r.nextShard.Add(1) & (numShards - 1)}
}

// Registry returns the sink's registry.
func (s *Sink) Registry() *Registry { return s.reg }

// Add adds d to c through the sink's shard.
func (s *Sink) Add(c *Counter, d int64) { c.addShard(s.shard, d) }

// Inc increments c through the sink's shard.
func (s *Sink) Inc(c *Counter) { c.addShard(s.shard, 1) }

// Observe records v into h.
func (s *Sink) Observe(h *Histogram, v int64) { h.Observe(v) }

// Set stores v into g.
func (s *Sink) Set(g *Gauge, v int64) { g.Set(v) }
