// Command pathdump inspects the path profile of a benchmark (or all of
// them): distinct paths, flow, hot-set statistics, unique heads, and the
// top paths by frequency. It is the debugging companion to cmd/hotpath.
//
// Usage:
//
//	pathdump [-scale f] [-top n] [-hot frac] [-verify] [benchmark ...]
//	pathdump cfg [-scale f] [-fn name] benchmark ...
//	pathdump merge -o out.json snap.json ...
//	pathdump trace [-chrome] trace.json
//	pathdump check [-scale f] [-json] [benchmark ...]
//
// The cfg subcommand emits one function's control-flow graph as Graphviz
// DOT, with the static predictor's maximum-likelihood hot-path edges
// highlighted in red; -verify runs the static verifier over each program
// and prints its report before the summary.
//
// The merge subcommand is the fleet aggregator for profile snapshots: it
// reads N netpath-snap/v1 files (per-shard -snapshot-out exports), groups
// their snapshots by (tenant, program fingerprint, scheme), flow-weight
// merges each group, and writes one file whose profiles warm-start the whole
// fleet's next generation.
//
// The check subcommand is the static-analysis gate: it runs each benchmark
// (default: all of them) under the tiered mini-Dynamo with the translation
// validator and statically-proven guard elision enabled, reporting the
// dataflow facts, validator verdicts, and guards-executed-per-step, and
// exits nonzero if any tier-1 or tier-2 translation is rejected. -json
// emits the report as the machine-readable CI artifact.
//
// The trace subcommand renders a netpath-trace/v1 document — a saved
// /v1/trace/{id} response or cmd/dynamo -trace output — as a text waterfall,
// or with -chrome as Chrome trace-event JSON for chrome://tracing / Perfetto.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"netpath/internal/cfg"
	"netpath/internal/profile"
	"netpath/internal/prog"
	"netpath/internal/snapshot"
	"netpath/internal/staticpred"
	"netpath/internal/trace"
	"netpath/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pathdump: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run parses args and writes the requested dumps to w. Split from main so
// the golden-output test can drive the full flag-to-format pipeline.
func run(args []string, w io.Writer) error {
	if len(args) > 0 && args[0] == "cfg" {
		return runCFG(args[1:], w)
	}
	if len(args) > 0 && args[0] == "merge" {
		return runMerge(args[1:], w)
	}
	if len(args) > 0 && args[0] == "trace" {
		return runTrace(args[1:], w)
	}
	if len(args) > 0 && args[0] == "check" {
		return runCheck(args[1:], w)
	}
	fs := flag.NewFlagSet("pathdump", flag.ContinueOnError)
	scale := fs.Float64("scale", 1.0, "workload scale factor")
	top := fs.Int("top", 0, "print the top N paths by frequency")
	hot := fs.Float64("hot", 0.001, "fractional hot threshold")
	disasm := fs.Bool("disasm", false, "print the program disassembly")
	jsonOut := fs.Bool("json", false, "emit the path profile as JSON instead of a summary")
	verify := fs.Bool("verify", false, "run the static verifier and print its report before the summary")
	if err := fs.Parse(args); err != nil {
		return err
	}
	names := fs.Args()
	if len(names) == 0 {
		names = workload.Names()
	}
	for _, name := range names {
		if err := dump(w, name, *scale, *top, *hot, *disasm, *jsonOut, *verify); err != nil {
			return err
		}
	}
	return nil
}

// runCFG implements the cfg subcommand: emit one function's CFG as DOT with
// the static maximum-likelihood hot-path edges highlighted.
func runCFG(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("pathdump cfg", flag.ContinueOnError)
	scale := fs.Float64("scale", 1.0, "workload scale factor")
	fn := fs.String("fn", "main", "function whose CFG to emit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	names := fs.Args()
	if len(names) == 0 {
		return fmt.Errorf("cfg wants at least one benchmark name")
	}
	for _, name := range names {
		b, err := workload.ByName(name)
		if err != nil {
			return err
		}
		p, err := b.Build(*scale)
		if err != nil {
			return err
		}
		fi := -1
		for i := range p.Funcs {
			if p.Funcs[i].Name == *fn {
				fi = i
			}
		}
		if fi < 0 {
			return fmt.Errorf("%s has no function %q", name, *fn)
		}
		g, err := cfg.Build(p, fi)
		if err != nil {
			return err
		}
		hl, err := hotPathEdges(p, fi, g)
		if err != nil {
			return err
		}
		if err := cfg.WriteDOT(w, g, hl); err != nil {
			return err
		}
	}
	return nil
}

// runMerge implements the merge subcommand: fleet-merge N snapshot files
// into one. Snapshots group by (tenant, fingerprint, scheme); each group
// merges commutatively, so shard order and capture order don't matter. The
// output keeps groups in first-seen order for a stable, diffable file.
func runMerge(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("pathdump merge", flag.ContinueOnError)
	out := fs.String("o", "", "output snapshot file (required)")
	quiet := fs.Bool("q", false, "suppress the per-group summary")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("merge wants -o out.json")
	}
	ins := fs.Args()
	if len(ins) == 0 {
		return fmt.Errorf("merge wants at least one input snapshot file")
	}
	lim := snapshot.DefaultLimits()
	groups := map[snapshot.Key][]*snapshot.Snapshot{}
	var order []snapshot.Key
	for _, path := range ins {
		f, err := snapshot.ReadFile(path, lim)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		for _, sn := range f.Snapshots {
			k := sn.GroupKey()
			if _, ok := groups[k]; !ok {
				order = append(order, k)
			}
			groups[k] = append(groups[k], sn)
		}
	}
	merged := snapshot.NewFile()
	for _, k := range order {
		sn, err := snapshot.MergeAll(groups[k])
		if err != nil {
			return err
		}
		sn.Clamp(lim)
		merged.Snapshots = append(merged.Snapshots, sn)
		if !*quiet {
			tenant := k.Tenant
			if tenant == "" {
				tenant = "-"
			}
			fmt.Fprintf(w, "%-12s %#016x %-4s  %d input(s) -> heads=%d traces=%d paths=%d flow=%d\n",
				tenant, k.Fingerprint, k.Scheme, len(groups[k]),
				len(sn.Heads), len(sn.Traces), len(sn.Paths), sn.Flow)
		}
	}
	if err := snapshot.WriteFile(*out, merged); err != nil {
		return err
	}
	if !*quiet {
		fmt.Fprintf(w, "wrote %d merged profile(s) to %s\n", len(merged.Snapshots), *out)
	}
	return nil
}

// runTrace implements the trace subcommand: render a captured trace
// document. The input is one netpath-trace/v1 JSON file ("-" reads stdin);
// the default output is the text waterfall, -chrome switches to Chrome
// trace-event JSON.
func runTrace(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("pathdump trace", flag.ContinueOnError)
	chrome := fs.Bool("chrome", false, "emit Chrome trace-event JSON instead of the text waterfall")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("trace wants exactly one input file (\"-\" for stdin)")
	}
	var r io.Reader = os.Stdin
	if name := fs.Arg(0); name != "-" {
		f, err := os.Open(name)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	d, err := trace.DecodeDoc(r)
	if err != nil {
		return err
	}
	if *chrome {
		return trace.ChromeJSON(w, d)
	}
	return trace.Waterfall(w, d)
}

// hotPathEdges maps the static predictor's walks through function fi onto
// CFG edges: every block-to-block transfer a maximum-likelihood walk takes
// inside the function is highlighted.
func hotPathEdges(p *prog.Program, fi int, g *cfg.Graph) (map[cfg.Edge]bool, error) {
	a, err := staticpred.Analyze(p)
	if err != nil {
		return nil, err
	}
	nodeAt := func(addr int) cfg.Node {
		bi := p.BlockAt(addr)
		if bi < 0 || p.Blocks[bi].Func != fi {
			return -1
		}
		if n, ok := g.NodeOf(bi); ok {
			return n
		}
		return -1
	}
	hl := map[cfg.Edge]bool{}
	for _, wk := range a.Walks() {
		for _, st := range wk.Steps {
			// Only block terminators realize CFG edges.
			bi := p.BlockAt(st.PC)
			if bi < 0 || p.Blocks[bi].Func != fi || st.PC != p.Blocks[bi].End-1 {
				continue
			}
			from, to := nodeAt(st.PC), nodeAt(st.Next)
			if from >= 0 && to >= 0 {
				hl[cfg.Edge{From: from, To: to}] = true
			}
		}
	}
	return hl, nil
}

func dump(w io.Writer, name string, scale float64, top int, hotFrac float64, disasm, jsonOut, verify bool) error {
	b, err := workload.ByName(name)
	if err != nil {
		return err
	}
	p, err := b.Build(scale)
	if err != nil {
		return err
	}
	if verify {
		r := cfg.Verify(p)
		fmt.Fprintln(w, r.String())
		if err := r.Err(); err != nil {
			return err
		}
	}
	if disasm {
		fmt.Fprint(w, p.Disasm())
	}
	start := time.Now()
	pr, err := profile.Collect(p, 0)
	if err != nil {
		return err
	}
	if jsonOut {
		return pr.WriteJSON(w)
	}
	hs := pr.Hot(hotFrac)
	fmt.Fprintf(w,
		"%-10s instrs=%-9d steps=%-11d paths=%-7d heads=%-6d flow=%-9d hot(%.2g%%): %d paths, %.1f%% flow  [%.2fs]\n",
		name, p.Len(), pr.Steps, pr.NumPaths(), pr.UniqueHeads(), pr.Flow,
		hotFrac*100, hs.Count, hs.FlowPct(pr), time.Since(start).Seconds())
	if top > 0 {
		for _, pc := range pr.TopPaths(top) {
			info := pr.Paths.Info(pc.ID)
			fmt.Fprintf(w, "  %10d  %s\n", pc.Freq, info.Signature())
		}
	}
	return nil
}
