package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// tampered hands out its sequence's jobs with a wrong expected step count.
type tampered struct{ sequence }

func (t tampered) next() (job, error) {
	j, err := t.sequence.next()
	j.want.Steps++
	return j, err
}

// TestWrongExpectationFails checks the correctness oracle: a job whose
// output disagrees with its reference is counted as failed, in-process and
// over HTTP.
func TestWrongExpectationFails(t *testing.T) {
	progs, err := benchPrograms([]string{"compress"}, []float64{1}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	w := &workloadDef{shapes: fig5Shapes, warmRounds: 1}
	in, err := setupInproc(w, newDeck(1, cellJobs(progs, fig5Shapes), true), progs)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	in.sequence = tampered{in.sequence}
	win, err := runWindow(in, 100*time.Millisecond, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if win.attempted == 0 || win.failed != win.attempted {
		t.Errorf("in-process: %d of %d jobs with a wrong expectation counted as failed", win.failed, win.attempted)
	}

	fresh, err := freshPrograms(1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := servedJobs(fresh)
	if err != nil {
		t.Fatal(err)
	}
	s, err := startServer(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	j := jobs[0]
	if r := s.do(j, false); !r.ok {
		t.Fatalf("served: correct job failed (HTTP %d)", r.status)
	}
	j.want.Regs[0]++
	if r := s.do(j, false); r.ok {
		t.Error("served: job with a wrong register expectation counted as correct")
	}
}

// sequenceDigest hashes the first n jobs a workload deals for seed: cell
// order, tenants, generated programs and request bodies.
func sequenceDigest(t *testing.T, w *workloadDef, seed int64, n int) [32]byte {
	t.Helper()
	progs, err := w.prepare(seed)
	if err != nil {
		t.Fatal(err)
	}
	seq, _, err := w.jobs(seed, progs)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for i := 0; i < n; i++ {
		j, err := seq.next()
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(j.label + "\x00" + j.tenant + "\x00"))
		h.Write(j.body)
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// TestSeedFixesJobSequence: the same seed deals the identical job
// sequence; another seed deals a different one.
func TestSeedFixesJobSequence(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := sequenceDigest(t, w, 1, 100)
			if b := sequenceDigest(t, w, 1, 100); a != b {
				t.Error("seed 1 dealt two different sequences")
			}
			if c := sequenceDigest(t, w, 2, 100); a == c {
				t.Error("seeds 1 and 2 dealt the same sequence")
			}
		})
	}
}

// checkPrinted prints r and checks the JSON result line names every metric
// of defs with its unit, with no failures.
func checkPrinted(t *testing.T, r report, defs []metricDef) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := r.print(&buf); err != nil {
		t.Fatal(err)
	}
	res, err := lastResult(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("correct=%v: %d of %d jobs failed", res.Correct, res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(defs))
	}
	vals := map[string]float64{}
	for _, m := range defs {
		got, ok := res.Metrics[m.name]
		if !ok || got.Unit != m.unit {
			t.Errorf("metric %s: printed %v, want unit %q", m.name, got, m.unit)
		}
		if !strings.Contains(buf.String(), m.name+" ") {
			t.Errorf("metric %s missing from the table", m.name)
		}
		vals[m.name] = got.Value
	}
	return vals
}

// TestSmoke runs every workload briefly, timed and traced.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := timedRun(w, 1, 500*time.Millisecond, 1)
			if err != nil {
				t.Fatal(err)
			}
			checkPrinted(t, r, endToEnd)
			r, err = tracedRun(w, 1, 500*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			v := checkPrinted(t, r, perLayer)
			if w.served && v["trace.tiling_gap_frac"] > 0.1 {
				t.Errorf("server spans leave %.1f%% of the request untiled, want <= 10%%",
					100*v["trace.tiling_gap_frac"])
			}
		})
	}
}

// TestBenchmarkJSONMatches checks BENCHMARK.json against the workloads and
// metric catalogue the command prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, want %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: listed %+v, want %s: %s", i, b.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics listed, want %d", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better || (g.Bound != nil) != bounded ||
				(bounded && *g.Bound != m.bound) {
				t.Errorf("%s %d: listed %+v, want %+v", kind, i, g, m)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
}
