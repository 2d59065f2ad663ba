// Command bench is netpath's repository benchmark: a single-process load
// generator that drives four workloads through the public APIs of dynamo,
// vm, profile, cfg, dataflow and server, checks every output against the
// legacy reference interpreter, and prints every metric by name and unit.
//
// One run measures one workload. The timed run (-trace 0) reports the
// end-to-end metrics with tracing off; the traced run (-trace 1) reports the
// per-layer metrics. The last line of standard output is the run's JSON
// result:
//
//	bash bench/run.sh --workload fig5_grid --seed 1 --seconds 25 --trace 0
//
// With -workload all (the default) or -runs N > 1, the command runs each
// workload in a fresh child process, N times with seeds seed..seed+N-1, and
// prints every metric's median and quartiles:
//
//	bash bench/run.sh --seed 1 --runs 5
//
// See README.md for the workloads and the metric glossary.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// metricDef describes one reported metric. bound is the share of the
// parent's median by which an end-to-end metric may worsen before a change
// counts as a regression (0 for per-layer metrics, which have none).
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd lists the timed run's metrics, in report order. On a shared
// two-core VM, time-based metrics spread 10-20% (quartile distance over
// median) between 25-second runs minutes apart, and serve_repeat's peak RSS
// tracks its throughput; those bounds are the 25% maximum. Allocation per
// job repeats within a few percent.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_job", "ms", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
	{"alloc_kb_per_job", "KiB", "lower", 0.10},
}

// setups is how many times a timed run sets its system up; setup_s is the
// median.
const setups = 5

// report is one run's result.
type report struct {
	attempted int64
	failed    int64
	values    map[string]float64
	defs      []metricDef
	notes     []string // human-readable context printed above the JSON line
}

// resultJSON is the last line of a run's standard output.
type resultJSON struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run: fig5_grid, tier2_loops, serve_repeat, serve_fresh, or all")
		seed    = flag.Int64("seed", 1, "workload seed: fixes cell order, tenants and generated programs")
		seconds = flag.Int("seconds", 25, "measured seconds per run")
		traced  = flag.Int("trace", 0, "0: timed run (end-to-end metrics); 1: traced run (per-layer metrics)")
		runs    = flag.Int("runs", 1, "runs per workload, with seeds seed..seed+runs-1, each in a child process")
	)
	flag.Parse()
	if *seconds < 1 || *runs < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -runs must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	d := time.Duration(*seconds) * time.Second
	if *name != "all" && *runs == 1 {
		w, err := lookupWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		var r report
		if *traced == 1 {
			r, err = tracedRun(w, *seed, d)
		} else {
			r, err = timedRun(w, *seed, d, setups)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		if err := r.print(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	names := []string{*name}
	if *name == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if _, err := lookupWorkload(*name); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if err := runChildren(os.Stdout, names, *seed, *seconds, *traced, *runs); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// timedRun sets the workload up n times (setup_s is the median), then
// measures the last set-up for d with tracing off.
func timedRun(w *workloadDef, seed int64, d time.Duration, n int) (report, error) {
	progs, err := w.prepare(seed)
	if err != nil {
		return report{}, err
	}
	var (
		inst   instance
		setupS []float64
	)
	for i := 0; i < n; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		inst, err = w.setup(seed, progs, false)
		if err != nil {
			return report{}, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer inst.close()
	win, err := runWindow(inst, d, false, nil)
	if err != nil {
		return report{}, err
	}
	if win.attempted == 0 {
		return report{}, errors.New("no job finished in the window")
	}
	lat := durationsMS(win.lat)
	jobs := float64(win.attempted)
	return report{
		attempted: win.attempted,
		failed:    win.failed,
		defs:      endToEnd,
		values: map[string]float64{
			"setup_s":          median(setupS),
			"jobs_per_s":       win.jobsPerSec(),
			"latency_p50_ms":   percentile(lat, 0.50),
			"latency_p99_ms":   percentile(lat, 0.99),
			"cpu_ms_per_job":   ms(win.cpu) / jobs,
			"peak_rss_mb":      peakRSSMiB(),
			"alloc_kb_per_job": float64(win.alloc) / 1024 / jobs,
		},
		notes: []string{
			fmt.Sprintf("latency samples %d over %.2fs; error_rate %.4f", len(lat), win.elapsed.Seconds(), float64(win.failed)/jobs),
			fmt.Sprintf("set-up times %s s", formatList(setupS)),
		},
	}, nil
}

// print writes the human-readable metric table, then the JSON result as
// the last line.
func (r report) print(out io.Writer) error {
	for _, n := range r.notes {
		fmt.Fprintln(out, "#", n)
	}
	res := resultJSON{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range r.defs {
		v, ok := r.values[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		fmt.Fprintf(out, "%-34s %14.6g %s\n", m.name, v, m.unit)
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

func formatList(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(s, " ")
}

// runChildren runs every named workload runs times, each run in a fresh
// child process of this binary (so peak RSS and GC state are per run), and
// prints each metric's median, quartiles and spread next to its bound.
func runChildren(out io.Writer, names []string, seed int64, seconds, traced, runs int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	defs := endToEnd
	if traced == 1 {
		defs = perLayer
	}
	for _, name := range names {
		vals := map[string][]float64{}
		for i := 0; i < runs; i++ {
			s := seed + int64(i)
			cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(s, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(traced))
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, s, err)
			}
			res, err := lastResult(stdout)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, s, err)
			}
			fmt.Fprintf(out, "%s seed=%d correct=%v attempted=%d failed=%d", name, s, res.Correct, res.Attempted, res.Failed)
			for _, m := range defs {
				v := res.Metrics[m.name].Value
				vals[m.name] = append(vals[m.name], v)
				fmt.Fprintf(out, " %s=%.5g", m.name, v)
			}
			fmt.Fprintln(out)
		}
		fmt.Fprintf(out, "\n%s: %d run(s)\n%-34s %12s %12s %12s %8s %6s  %s\n",
			name, runs, "metric", "q1", "median", "q3", "spread", "bound", "unit")
		for _, m := range defs {
			xs := vals[m.name]
			q1, q2, q3 := xs[0], xs[0], xs[0]
			if len(xs) > 1 {
				q1, q2, q3 = quartiles(xs)
			}
			spread := ratio(q3-q1, q2)
			bound := "-"
			if m.bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*m.bound)
			}
			fmt.Fprintf(out, "%-34s %12.5g %12.5g %12.5g %7.1f%% %6s  %s\n", m.name, q1, q2, q3, 100*spread, bound, m.unit)
		}
		fmt.Fprintln(out)
	}
	return nil
}

// lastResult parses the JSON result on the last line of a run's output.
func lastResult(stdout []byte) (resultJSON, error) {
	out := bytes.TrimSpace(stdout)
	var res resultJSON
	if err := json.Unmarshal(out[bytes.LastIndexByte(out, '\n')+1:], &res); err != nil {
		return res, fmt.Errorf("no JSON result on the last line: %w", err)
	}
	return res, nil
}
