// Command hotpath regenerates every table and figure of the paper's
// evaluation on the synthetic benchmark suite.
//
// Usage:
//
//	hotpath [-scale f] [-tau n] [-parallel n] table1|table2|fig2|fig3|fig4|fig5|static|phases|timetopeak|chaos|all
//
// Tables 1-2 and Figures 2-4 use the abstract metrics (Section 5); Figure 5
// runs the mini-Dynamo concrete evaluation (Section 6); phases runs the
// windowed-metrics extension (Sections 6.1/7); chaos sweeps the mini-Dynamo
// under escalating fault injection (robustness evaluation; not part of
// "all", which regenerates exactly the paper's tables and figures).
//
// The pipeline fans (benchmark, scheme, τ) cells out over a bounded worker
// pool; -parallel overrides the width (default GOMAXPROCS, 1 = serial —
// output is byte-identical either way). -cpuprofile/-memprofile/-trace
// capture pprof/trace data for the run, and -bench-out measures the
// pipeline and its hot loops into a machine-readable perf baseline
// (BENCH_hotpath.json).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"time"

	"netpath/internal/experiments"
	"netpath/internal/metrics"
	"netpath/internal/par"
	"netpath/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hotpath: ")
	scale := flag.Float64("scale", 1.0, "workload scale factor (1.0 = reported experiments)")
	tau := flag.Int64("tau", 50, "prediction delay for the phases/boa/ablation reports")
	csvDir := flag.String("csv", "", "also write fig2/fig3 sweep and fig5 grid CSVs into this directory")
	parallel := flag.Int("parallel", 0, "worker pool width for the experiment grid (0 = GOMAXPROCS, 1 = serial)")
	benchOut := flag.String("bench-out", "", "measure the pipeline + hot loops and write the perf baseline JSON to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	traceFile := flag.String("trace", "", "write a runtime execution trace to this file")
	telemetryAddr := flag.String("telemetry-addr", "", "serve live telemetry (/metrics, /snapshot, pprof) on this address and enable collection")
	telemetryHold := flag.Duration("telemetry-hold", 0, "keep the telemetry server (and process) alive this long after the work completes")
	progress := flag.Duration("progress", 0, "print a progress line (cells done, ETA) to stderr at this interval")
	flag.Parse()

	par.SetWorkers(*parallel)

	if *telemetryAddr != "" {
		srv, addr, err := telemetry.Serve(*telemetryAddr, telemetry.Def)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "telemetry: serving /metrics /snapshot on http://%s\n", addr)
		if *telemetryHold > 0 {
			hold := *telemetryHold
			defer func() {
				fmt.Fprintf(os.Stderr, "telemetry: holding the server for %s (scrape now)\n", hold)
				time.Sleep(hold)
			}()
		}
	}
	if *progress > 0 {
		done, planned := experiments.ProgressCounters()
		prog := telemetry.StartProgress(os.Stderr, "hotpath", done, planned, *progress)
		defer prog.Stop()
	}

	cmds := flag.Args()
	if len(cmds) == 0 && *benchOut == "" {
		fmt.Fprintln(os.Stderr, "usage: hotpath [-scale f] [-parallel n] [-bench-out f.json] table1|table2|fig2|fig3|fig4|fig5|static|phases|boa|ablation|hardware|timetopeak|chaos|all")
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			log.Fatal(err)
		}
		if err := trace.Start(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			trace.Stop()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Print(err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Print(err)
			}
		}()
	}

	if *benchOut != "" {
		if err := runBenchSuite(*scale, *benchOut); err != nil {
			log.Fatal(err)
		}
		if len(cmds) == 0 {
			return
		}
	}

	needProfiles := false
	needFig5 := false
	for _, c := range cmds {
		switch c {
		case "table1", "table2", "fig2", "fig3", "fig4", "static", "phases", "boa", "ablation", "all":
			needProfiles = true
		case "hardware":
			// needs no oracle profiles
		}
		if c == "fig5" || c == "all" {
			needFig5 = true
		}
	}

	var bps []experiments.BenchProfile
	if needProfiles {
		start := time.Now()
		var err error
		bps, err = experiments.CollectAll(*scale)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "collected oracle profiles for %d benchmarks in %.1fs\n\n", len(bps), time.Since(start).Seconds())
	}
	var series []experiments.Series
	sweep := func() []experiments.Series {
		if series == nil {
			series = experiments.SweepSchemes(bps, metrics.DefaultTaus())
		}
		return series
	}
	var fig5 map[string][]experiments.Fig5Result
	if needFig5 {
		start := time.Now()
		var err error
		fig5, err = experiments.RunFig5(*scale)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "ran the Figure 5 Dynamo grid in %.1fs\n\n", time.Since(start).Seconds())
	}

	if *csvDir != "" {
		if err := writeCSVs(*csvDir, sweep(), fig5); err != nil {
			log.Fatal(err)
		}
	}

	for _, c := range cmds {
		switch c {
		case "table1":
			fmt.Println(experiments.Table1(bps))
		case "table2":
			fmt.Println(experiments.Table2(bps))
		case "fig2":
			fmt.Println(experiments.Fig2(sweep()))
		case "fig3":
			fmt.Println(experiments.Fig3(sweep()))
		case "fig4":
			fmt.Println(experiments.Fig4(bps))
		case "fig5":
			fmt.Println(experiments.Fig5(fig5))
		case "static":
			fmt.Println(experiments.StaticReport(bps))
		case "phases":
			fmt.Println(experiments.PhasesReport(bps, *tau))
		case "boa":
			out, err := experiments.BoaReport(bps, *scale, *tau)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(out)
		case "ablation":
			fmt.Println(experiments.AblationReport(bps, *tau))
		case "hardware":
			out, err := experiments.HardwareReport(*scale, *tau)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(out)
		case "timetopeak":
			out, err := experiments.TimeToPeakReport(*scale, *tau)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(out)
		case "chaos":
			out, err := experiments.ChaosReport(*scale, *tau)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(out)
		case "all":
			fmt.Println(experiments.Table1(bps))
			fmt.Println(experiments.Table2(bps))
			fmt.Println(experiments.Fig2(sweep()))
			fmt.Println(experiments.Fig3(sweep()))
			fmt.Println(experiments.Fig4(bps))
			fmt.Println(experiments.Fig5(fig5))
			fmt.Println(experiments.StaticReport(bps))
			fmt.Println(experiments.PhasesReport(bps, *tau))
			out, err := experiments.BoaReport(bps, *scale, *tau)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(out)
			fmt.Println(experiments.AblationReport(bps, *tau))
			hw, err := experiments.HardwareReport(*scale, *tau)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(hw)
		default:
			log.Fatalf("unknown command %q", c)
		}
	}
}

// writeCSVs exports the sweep and Dynamo grid for external plotting.
func writeCSVs(dir string, series []experiments.Series, grid map[string][]experiments.Fig5Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "sweep.csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := experiments.WriteSeriesCSV(f, series); err != nil {
		return err
	}
	if grid != nil {
		g, err := os.Create(filepath.Join(dir, "fig5.csv"))
		if err != nil {
			return err
		}
		defer g.Close()
		if err := experiments.WriteFig5CSV(g, grid); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "wrote CSVs to %s\n", dir)
	return nil
}
