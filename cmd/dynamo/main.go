// Command dynamo runs one benchmark (or all of them) under the mini-Dynamo
// dynamic optimizer and prints the execution report: speedup over native,
// cycle breakdown, cache behaviour, and the heuristics' decisions.
//
// Usage:
//
//	dynamo [-scheme net|pathprofile] [-tau n] [-scale f] [-maxsteps n] [-v]
//	       [-tier2] [-tier2-workers n] [-tier2-threshold n]
//	       [-snapshot-in f] [-snapshot-out f] [-snapshot-every n]
//	       [-trace f] [benchmark ...]
//
// -snapshot-in warm-starts each benchmark from a persisted profile snapshot
// (captured by an earlier -snapshot-out run, possibly fleet-merged with
// pathdump merge); -snapshot-out captures the profiling state the run paid
// for, and -snapshot-every additionally captures mid-run so short-lived
// phases survive cache flushes.
//
// -trace captures a request-scoped span trace of one benchmark run —
// trace-select, fragment-emit, tier-2 compile/promote/deopt events — and
// writes it as netpath-trace/v1 JSON ("-" = stdout), renderable with
// `pathdump trace`.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"netpath/internal/dynamo"
	"netpath/internal/snapshot"
	"netpath/internal/telemetry"
	"netpath/internal/trace"
	"netpath/internal/vm"
	"netpath/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dynamo: ")
	schemeFlag := flag.String("scheme", "net", "prediction scheme: net or pathprofile")
	tau := flag.Int64("tau", 50, "prediction delay")
	scale := flag.Float64("scale", 1.0, "workload scale factor")
	maxSteps := flag.Int64("maxsteps", 500_000_000, "abort after this many machine steps (<=0 = unlimited)")
	verbose := flag.Bool("v", false, "print the full cycle breakdown")
	noopt := flag.Bool("noopt", false, "disable the trace optimizer (ablation)")
	nolink := flag.Bool("nolink", false, "disable fragment linking (ablation)")
	tier2 := flag.Bool("tier2", false, "enable background superblock compilation (tier-2 execution)")
	tier2Workers := flag.Int("tier2-workers", 1, "tier-2 compile worker count")
	tier2Queue := flag.Int("tier2-queue", 64, "tier-2 compile queue capacity")
	tier2Threshold := flag.Int64("tier2-threshold", 0, "fragment completions before tier-2 promotion (0 = engine default)")
	fragments := flag.Int("fragments", 0, "print the top N resident fragments after the run")
	snapIn := flag.String("snapshot-in", "", "warm-start from the profile snapshot file (matched by program fingerprint)")
	snapOut := flag.String("snapshot-out", "", "write a profile snapshot file at exit")
	snapEvery := flag.Int("snapshot-every", 0, "with -snapshot-out: also capture every n path events, merged into the output (0 = exit only)")
	telemetryAddr := flag.String("telemetry-addr", "", "serve live telemetry (/metrics, /snapshot, pprof) on this address and enable collection")
	telemetryHold := flag.Duration("telemetry-hold", 0, "keep the telemetry server (and process) alive this long after the work completes")
	traceOut := flag.String("trace", "", "capture a span trace of the run and write netpath-trace/v1 JSON to this file (\"-\" = stdout; wants exactly one benchmark)")
	flag.Parse()

	if *telemetryAddr != "" {
		srv, addr, err := telemetry.Serve(*telemetryAddr, telemetry.Def)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		log.Printf("telemetry: serving /metrics /snapshot on http://%s", addr)
		if *telemetryHold > 0 {
			hold := *telemetryHold
			defer func() {
				log.Printf("telemetry: holding the server for %s (scrape now)", hold)
				time.Sleep(hold)
			}()
		}
	}

	var scheme dynamo.Scheme
	switch strings.ToLower(*schemeFlag) {
	case "net":
		scheme = dynamo.SchemeNET
	case "pathprofile", "pp":
		scheme = dynamo.SchemePathProfile
	default:
		log.Fatalf("unknown scheme %q", *schemeFlag)
	}

	// The trace's write defer is registered before the tier-2 compiler's
	// Close defer on purpose: defers run LIFO, so the document is encoded
	// only after Close has joined the compile workers and their late
	// tier2-compile spans have landed in the arena.
	var tr *trace.Trace
	trRoot, trExec := trace.NoSpan, trace.NoSpan
	if *traceOut != "" {
		if len(flag.Args()) != 1 {
			log.Fatal("-trace wants exactly one benchmark")
		}
		tr = trace.New(trace.NewID(), "", 4096, time.Now())
		trRoot = tr.Add(trace.SpanRequest, trace.NoSpan, 0, 0, 0, 0)
		defer func() {
			d := tr.Doc()
			out := os.Stdout
			if *traceOut != "-" {
				f, err := os.Create(*traceOut)
				if err != nil {
					log.Fatalf("-trace: %v", err)
				}
				defer f.Close()
				out = f
			}
			if err := d.Encode(out); err != nil {
				log.Fatalf("-trace: %v", err)
			}
			if *traceOut != "-" {
				log.Printf("wrote trace %s (%d spans) to %s", d.TraceID, len(d.Spans), *traceOut)
			}
		}()
	}

	var t2c *dynamo.Tier2Compiler
	if *tier2 {
		t2c = dynamo.NewTier2Compiler(*tier2Workers, *tier2Queue)
		defer t2c.Close()
	}

	var warmFile *snapshot.File
	if *snapIn != "" {
		var err error
		warmFile, err = snapshot.ReadFile(*snapIn, snapshot.DefaultLimits())
		if err != nil {
			log.Fatalf("-snapshot-in: %v", err)
		}
	}
	var outSnaps []*snapshot.Snapshot

	names := flag.Args()
	if len(names) == 0 {
		names = workload.Names()
	}
	for _, name := range names {
		b, err := workload.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		p, err := b.Build(*scale)
		if err != nil {
			log.Fatal(err)
		}
		cfg := dynamo.DefaultConfig(scheme, *tau)
		cfg.DisableOptimizer = *noopt
		cfg.DisableLinking = *nolink
		cfg.Tier2 = t2c
		cfg.Tier2Threshold = *tier2Threshold
		if telemetry.Active() {
			cfg.Telemetry = telemetry.Def.NewSink()
		}
		if *maxSteps > 0 {
			cfg.MaxSteps = *maxSteps
		}
		if tr != nil {
			trExec = tr.Begin(trace.SpanExecute, trRoot, 0, 0)
			cfg.Trace = tr
			cfg.TraceParent = trExec
		}
		var midSnaps []*snapshot.Snapshot
		if *snapOut != "" && *snapEvery > 0 {
			cfg.ProbeEvery = *snapEvery
			cfg.Probe = func(s *dynamo.System) { midSnaps = append(midSnaps, s.Snapshot("")) }
		}
		start := time.Now()
		sys := dynamo.New(p, cfg)
		if warmFile != nil {
			if err := restoreFrom(sys, warmFile, p.Fingerprint(), cfg.Scheme.String()); err != nil {
				log.Fatalf("%s: -snapshot-in: %v", name, err)
			}
		}
		res, err := sys.Run()
		if errors.Is(err, vm.ErrStepLimit) {
			log.Fatalf("%s: %v — the program did not halt within -maxsteps=%d; raise the limit or pass -maxsteps=0", name, err, *maxSteps)
		}
		if err != nil {
			log.Fatal(err)
		}
		if tr != nil {
			tr.SetArg(trExec, 0, res.Steps)
			tr.End(trExec)
		}
		if warmFile != nil {
			fmt.Printf("warm-start: restored %d fragments, %d heads, %d paths, %d tier-2 for %s\n",
				res.RestoredFragments, res.RestoredHeads, res.RestoredPaths, res.RestoredT2, name)
		}
		if *snapOut != "" {
			outSnaps = append(outSnaps, mergeCaptures(append(midSnaps, sys.Snapshot(""))))
		}
		fmt.Printf("%s  [%.2fs]\n", res, time.Since(start).Seconds())
		if *verbose {
			printBreakdown(res)
			opt := sys.OptimizerStats()
			fmt.Printf("  opt:    %d folded, %d branches folded, %d loads removed, %d dead writes, %d jumps straightened\n",
				opt.FoldedOps, opt.FoldedBranches, opt.LoadsRemoved, opt.DeadRemoved, opt.JumpsRemoved)
		}
		if *fragments > 0 {
			fmt.Print(sys.DumpCache(*fragments))
		}
	}

	if *snapOut != "" {
		if err := snapshot.WriteFile(*snapOut, snapshot.NewFile(outSnaps...)); err != nil {
			log.Fatalf("-snapshot-out: %v", err)
		}
		log.Printf("wrote %d profile snapshot(s) to %s", len(outSnaps), *snapOut)
	}
}

// restoreFrom warm-starts sys from the snapshots in f matching the program
// fingerprint and the configured scheme, fleet-merged. Snapshots exported
// from a multi-tenant server keep their tenant labels; the local CLI accepts
// any of them, so tenants are normalized away before the merge. A file with
// no matching snapshot leaves the system cold, with a notice.
func restoreFrom(sys *dynamo.System, f *snapshot.File, fp uint64, scheme string) error {
	var match []*snapshot.Snapshot
	for _, sn := range f.Snapshots {
		if sn.Fingerprint == fp && sn.Scheme == scheme {
			c := *sn
			c.Tenant = ""
			match = append(match, &c)
		}
	}
	if len(match) == 0 {
		log.Printf("warm-start: no snapshot matches fingerprint %#x scheme %s; starting cold", fp, scheme)
		return nil
	}
	merged, err := snapshot.MergeAll(match)
	if err != nil {
		return err
	}
	return sys.Restore(merged)
}

// mergeCaptures folds a run's mid-run captures and exit snapshot into one
// profile; capture errors cannot occur (same system, same group key), so a
// merge failure here is a bug worth crashing on.
func mergeCaptures(snaps []*snapshot.Snapshot) *snapshot.Snapshot {
	merged, err := snapshot.MergeAll(snaps)
	if err != nil {
		log.Fatalf("snapshot merge: %v", err)
	}
	return merged
}

func printBreakdown(r dynamo.Result) {
	fmt.Printf("  native: %.0f cycles (%d instrs, %d redirects)\n", r.NativeCycles, r.Steps, r.Redirects)
	fmt.Printf("  dynamo: %.0f cycles = interp %.0f + frag %.0f + profile %.0f + build %.0f + trans %.0f\n",
		r.Cycles, r.InterpCycles, r.FragCycles, r.ProfileCycles, r.BuildCycles, r.TransCycles)
	fmt.Printf("  instrs: interp %d, cached %d (%.2f%% of run), eliminated %d, native-after-bail %d\n",
		r.InterpInstrs, r.FragInstrs, 100*r.CachedFraction(), r.ElimInstrs, r.NativeInstrs)
	fmt.Printf("  cache:  %d fragments, %d flushes, enters %d, linked %d, exits %d\n",
		r.Fragments, r.Flushes, r.FragEnters, r.LinkedJumps, r.FragExits)
	if r.T2Promotions > 0 || r.T2Enters > 0 {
		pct := 0.0
		if r.Steps > 0 {
			pct = 100 * float64(r.T2Instrs) / float64(r.Steps)
		}
		fmt.Printf("  tier2:  %d promoted, %d superblock entries, %d instrs (%.2f%% of run), %d guard bounces, %d deopts\n",
			r.T2Promotions, r.T2Enters, r.T2Instrs, pct, r.T2GuardFails, r.T2Deopts)
	}
	if r.BailedOut {
		fmt.Printf("  bail-out at step %d\n", r.BailStep)
	}
}
