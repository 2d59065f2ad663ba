package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func populated() *Registry {
	r := NewRegistry()
	c := r.Counter("frag_enters_total", "fragment entries")
	r.Counter("flushes_total", "cache flushes").Add(2)
	g := r.Gauge("head_table_len", "live head counters")
	h := r.Histogram("fragment_size_instrs", "trace length at emit")
	s := r.NewSink()
	s.Add(c, 41)
	s.Inc(c)
	s.Set(g, 17)
	s.Observe(h, 3)
	s.Observe(h, 100)
	return r
}

func TestSnapshotJSON(t *testing.T) {
	r := populated()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if snap.Schema != Schema {
		t.Fatalf("schema %q, want %q", snap.Schema, Schema)
	}
	if snap.UnixMillis == 0 {
		t.Error("snapshot missing timestamp")
	}
	byName := map[string]int64{}
	for _, c := range snap.Counters {
		byName[c.Name] = c.Value
	}
	if byName["frag_enters_total"] != 42 || byName["flushes_total"] != 2 {
		t.Fatalf("counter values wrong: %+v", snap.Counters)
	}
	// Counters are sorted by name for stable diffs.
	if snap.Counters[0].Name != "flushes_total" {
		t.Fatalf("counters not name-sorted: %+v", snap.Counters)
	}
	if len(snap.Gauges) != 1 || snap.Gauges[0].Value != 17 {
		t.Fatalf("gauges wrong: %+v", snap.Gauges)
	}
	if len(snap.Histograms) != 1 {
		t.Fatalf("histograms wrong: %+v", snap.Histograms)
	}
	hs := snap.Histograms[0]
	if hs.Count != 2 || hs.Sum != 103 || len(hs.Buckets) != 2 {
		t.Fatalf("histogram snapshot wrong: %+v", hs)
	}
}

func TestPrometheusText(t *testing.T) {
	r := populated()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE netpath_frag_enters_total counter",
		"netpath_frag_enters_total 42",
		"# TYPE netpath_head_table_len gauge",
		"netpath_head_table_len 17",
		"# TYPE netpath_fragment_size_instrs histogram",
		`netpath_fragment_size_instrs_bucket{le="+Inf"} 2`,
		"netpath_fragment_size_instrs_sum 103",
		"netpath_fragment_size_instrs_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Buckets are cumulative: the le=4 bucket includes the le=2 observation...
	// observation 3 lands in le=4; cumulative counts never decrease.
	if strings.Index(out, `le="4"} 1`) < 0 {
		t.Errorf("cumulative bucket missing:\n%s", out)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	r := populated()
	srv, addr, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if !Active() {
		t.Error("Serve must mark telemetry active")
	}
	get := func(path string) string {
		resp, err := http.Get("http://" + addr.String() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	if !strings.Contains(get("/metrics"), "netpath_frag_enters_total 42") {
		t.Error("/metrics missing counter")
	}
	if !strings.Contains(get("/snapshot"), Schema) {
		t.Error("/snapshot missing schema")
	}
	if !strings.Contains(get("/debug/vars"), "netpath_telemetry") {
		t.Error("/debug/vars missing published snapshot")
	}
	if !strings.Contains(get("/debug/pprof/cmdline"), "telemetry") {
		t.Error("/debug/pprof/cmdline not served")
	}
}
