// Exporters: the versioned JSON snapshot (netpath-telemetry/v1), the
// Prometheus text exposition, and expvar publication. Exporters only read
// atomics; they can run concurrently with the hottest writers and a snapshot
// is internally consistent per instrument (counters are summed shard by
// shard, so a snapshot races only at the granularity of single adds).
// Export formatting is cold by construction: it runs on scrape, not on the
// instrument write path.
//
//netpathvet:cold-file
package telemetry

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"sync"
	"time"
)

// Schema identifies the snapshot format; bump on incompatible changes
// (versioned like internal/benchjson's netpath-bench/v1).
const Schema = "netpath-telemetry/v1"

// CounterSnap is one counter in a snapshot.
type CounterSnap struct {
	Name  string `json:"name"`
	Help  string `json:"help,omitempty"`
	Value int64  `json:"value"`
}

// GaugeSnap is one gauge in a snapshot.
type GaugeSnap struct {
	Name  string `json:"name"`
	Help  string `json:"help,omitempty"`
	Value int64  `json:"value"`
}

// BucketSnap is one histogram bucket: Count observations at most UpperBound
// (UpperBound -1 = overflow bucket, unbounded).
type BucketSnap struct {
	UpperBound int64 `json:"le"`
	Count      int64 `json:"count"`
}

// HistogramSnap is one histogram in a snapshot. Buckets with zero counts are
// elided.
type HistogramSnap struct {
	Name    string       `json:"name"`
	Help    string       `json:"help,omitempty"`
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Buckets []BucketSnap `json:"buckets,omitempty"`
}

// Snapshot is the full exported state of a registry.
type Snapshot struct {
	Schema     string          `json:"schema"`
	UnixMillis int64           `json:"unix_millis"`
	Counters   []CounterSnap   `json:"counters"`
	Gauges     []GaugeSnap     `json:"gauges,omitempty"`
	Histograms []HistogramSnap `json:"histograms,omitempty"`
}

// Snapshot captures the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	cs, gs, hs := r.instruments()
	snap := Snapshot{
		Schema:     Schema,
		UnixMillis: time.Now().UnixMilli(),
		Counters:   make([]CounterSnap, 0, len(cs)),
	}
	for _, c := range cs {
		snap.Counters = append(snap.Counters, CounterSnap{Name: c.name, Help: c.help, Value: c.Value()})
	}
	for _, g := range gs {
		snap.Gauges = append(snap.Gauges, GaugeSnap{Name: g.name, Help: g.help, Value: g.Value()})
	}
	for _, h := range hs {
		hsnap := HistogramSnap{Name: h.name, Help: h.help, Count: h.Count(), Sum: h.Sum()}
		for i := 0; i < histBuckets; i++ {
			if n := h.buckets[i].Load(); n > 0 {
				hsnap.Buckets = append(hsnap.Buckets, BucketSnap{UpperBound: UpperBound(i), Count: n})
			}
		}
		snap.Histograms = append(snap.Histograms, hsnap)
	}
	return snap
}

// WriteJSON writes the snapshot as indented JSON followed by a newline.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// promPrefix namespaces every exported series.
const promPrefix = "netpath_"

// WritePrometheus writes the registry in the Prometheus text exposition
// format (counters, gauges, and histograms with cumulative buckets).
func (r *Registry) WritePrometheus(w io.Writer) error {
	cs, gs, hs := r.instruments()
	for _, c := range cs {
		if c.help != "" {
			fmt.Fprintf(w, "# HELP %s%s %s\n", promPrefix, c.name, c.help)
		}
		fmt.Fprintf(w, "# TYPE %s%s counter\n%s%s %d\n", promPrefix, c.name, promPrefix, c.name, c.Value())
	}
	for _, g := range gs {
		if g.help != "" {
			fmt.Fprintf(w, "# HELP %s%s %s\n", promPrefix, g.name, g.help)
		}
		fmt.Fprintf(w, "# TYPE %s%s gauge\n%s%s %d\n", promPrefix, g.name, promPrefix, g.name, g.Value())
	}
	for _, h := range hs {
		if h.help != "" {
			fmt.Fprintf(w, "# HELP %s%s %s\n", promPrefix, h.name, h.help)
		}
		fmt.Fprintf(w, "# TYPE %s%s histogram\n", promPrefix, h.name)
		cum := int64(0)
		for i := 0; i < histBuckets-1; i++ {
			cum += h.buckets[i].Load()
			fmt.Fprintf(w, "%s%s_bucket{le=\"%d\"} %d\n", promPrefix, h.name, UpperBound(i), cum)
		}
		fmt.Fprintf(w, "%s%s_bucket{le=\"+Inf\"} %d\n", promPrefix, h.name, h.Count())
		fmt.Fprintf(w, "%s%s_sum %d\n", promPrefix, h.name, h.Sum())
		fmt.Fprintf(w, "%s%s_count %d\n", promPrefix, h.name, h.Count())
	}
	return nil
}

// publishOnce guards the process-global expvar name (expvar panics on
// duplicate Publish).
var publishOnce sync.Once

// PublishExpvar publishes the default registry's snapshot under the expvar
// name "netpath_telemetry" (visible on /debug/vars). Idempotent.
func PublishExpvar() {
	publishOnce.Do(func() {
		expvar.Publish("netpath_telemetry", expvar.Func(func() any {
			return Def.Snapshot()
		}))
	})
}
