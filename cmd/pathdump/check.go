package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"runtime"

	"netpath/internal/dataflow"
	"netpath/internal/dynamo"
	"netpath/internal/workload"
)

// checkEntry is one benchmark's static-analysis verdict: the dataflow facts
// the analyzer proved, the translation validator's accept/reject tallies
// across both tiers, and the runtime checks tier 2 executed. The JSON form
// is the CI artifact; the gate fails on any reject.
type checkEntry struct {
	Name string `json:"name"`

	// Whole-program dataflow facts.
	BoundsProven    int `json:"bounds_proven"`
	BoundsTotal     int `json:"bounds_total"`
	BranchesDecided int `json:"branches_decided"`
	BranchesTotal   int `json:"branches_total"`

	// Tier-1 translation validation (at emit).
	ValidatorChecked int64 `json:"validator_checked"`
	ValidatorRejects int64 `json:"validator_rejects"`

	// Tier-2 translation validation (after background compile).
	T2Compiled         int64 `json:"t2_compiled"`
	T2ValidatorRejects int64 `json:"t2_validator_rejects"`

	// Entry guards pruned as implied, and the runtime checks (guards plus
	// bounds and successor checks) tier 2 executed per guest step.
	T2GuardsImplied int64   `json:"t2_guards_implied"`
	T2GuardChecks   int64   `json:"t2_guard_checks"`
	T2Instrs        int64   `json:"t2_instrs"`
	GuardsPerStep   float64 `json:"guards_per_step"`
}

// rejects is the gate condition: any refused translation fails the check.
func (e *checkEntry) rejects() int64 {
	return e.ValidatorRejects + e.T2ValidatorRejects
}

// runCheck implements the check subcommand: the CI static-analysis gate.
// Each benchmark runs under the full tiered mini-Dynamo with the translation
// validator on (every tier-1 emit and tier-2 superblock proven against its
// recorded guest sequence before installation), so the validator checks
// exactly the translations production would run. The command exits
// nonzero if any translation is rejected: on these deterministic workloads a
// reject is a compiler bug, not an input anomaly.
func runCheck(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("pathdump check", flag.ContinueOnError)
	scale := fs.Float64("scale", 1.0, "workload scale factor")
	tau := fs.Int64("tau", 50, "NET promotion threshold")
	thresh := fs.Int64("tier2-threshold", 8, "fragment completions before tier-2 promotion")
	jsonOut := fs.Bool("json", false, "emit the per-benchmark report as JSON (the CI facts artifact)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	names := fs.Args()
	if len(names) == 0 {
		names = workload.Names()
	}
	entries := make([]checkEntry, 0, len(names))
	var bad []string
	for _, name := range names {
		e, err := checkOne(name, *scale, *tau, *thresh)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		entries = append(entries, *e)
		if e.rejects() > 0 {
			bad = append(bad, name)
		}
		if !*jsonOut {
			fmt.Fprintf(w,
				"%-10s bounds=%d/%d decided=%d/%d  t1 checked=%d rejects=%d  t2 compiled=%d rejects=%d implied=%d  guards/step=%.3f\n",
				e.Name, e.BoundsProven, e.BoundsTotal, e.BranchesDecided, e.BranchesTotal,
				e.ValidatorChecked, e.ValidatorRejects,
				e.T2Compiled, e.T2ValidatorRejects,
				e.T2GuardsImplied, e.GuardsPerStep)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Benchmarks []checkEntry `json:"benchmarks"`
		}{entries}); err != nil {
			return err
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("validator rejected translations on %v", bad)
	}
	return nil
}

// checkOne analyzes and runs one benchmark. The tier-2 compiler gets its own
// queue so the drain condition below is exact: every successful enqueue
// (Result.T2Promotions) ends as exactly one compile or rejection. The fact
// counts describe the program; the run itself never reads them.
func checkOne(name string, scale float64, tau, thresh int64) (*checkEntry, error) {
	b, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	p, err := b.Build(scale)
	if err != nil {
		return nil, err
	}
	e := &checkEntry{Name: name}
	facts, err := dataflow.Analyze(p)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	e.BoundsProven, e.BoundsTotal = facts.InBoundsCount()
	e.BranchesDecided, e.BranchesTotal = facts.DecidedBranchCount()

	tc := dynamo.NewTier2Compiler(1, 256)
	defer tc.Close()
	cfg := dynamo.DefaultConfig(dynamo.SchemeNET, tau)
	cfg.Tier2 = tc
	cfg.Tier2Threshold = thresh
	cfg.ValidateEmits = true
	res, err := dynamo.New(p, cfg).Run()
	if err != nil {
		return nil, err
	}
	// Drain the compile queue: promotions the run enqueued may still be in
	// flight, and the validator's verdict lands when the compile finishes.
	for tc.Compiled()+tc.Rejected() < res.T2Promotions {
		runtime.Gosched()
	}
	e.ValidatorChecked = res.ValidatorChecked
	e.ValidatorRejects = res.ValidatorRejects
	e.T2Compiled = tc.Compiled()
	e.T2ValidatorRejects = tc.ValidatorRejected()
	e.T2GuardsImplied = res.T2GuardsImplied
	e.T2GuardChecks = res.T2GuardChecks
	e.T2Instrs = res.T2Instrs
	if res.T2Instrs > 0 {
		e.GuardsPerStep = float64(res.T2GuardChecks) / float64(res.T2Instrs)
	}
	return e, nil
}
