package dataflow_test

import (
	"runtime"
	"testing"

	"netpath/internal/dataflow"
	"netpath/internal/dynamo"
	"netpath/internal/staticpred"
	"netpath/internal/workload"
)

// TestOneAnalysisPerProgram: the whole-program analysis is tooling, so no
// run path pays for it. A tier-2 run with every superblock and fragment
// validated, the static predictor's analysis, and a static-scheme run
// together call Analyze zero times.
func TestOneAnalysisPerProgram(t *testing.T) {
	b, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Build(0.05)
	if err != nil {
		t.Fatal(err)
	}
	before := dataflow.Analyses()
	tc := dynamo.NewTier2Compiler(1, 256)
	defer tc.Close()
	cfg := dynamo.DefaultConfig(dynamo.SchemeNET, 50)
	cfg.Tier2 = tc
	cfg.Tier2Threshold = 4
	cfg.ValidateEmits = true
	res, err := dynamo.New(p, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	for tc.Compiled()+tc.Rejected() < res.T2Promotions {
		runtime.Gosched()
	}
	if tc.Compiled() == 0 {
		t.Fatal("tier 2 compiled nothing: the run validated no superblock")
	}
	if tc.ValidatorRejected() != 0 {
		t.Fatalf("validator rejected %d superblocks", tc.ValidatorRejected())
	}
	if _, err := staticpred.Analyze(p); err != nil {
		t.Fatal(err)
	}
	if _, err := dynamo.New(p, dynamo.DefaultConfig(dynamo.SchemeStatic, 0)).Run(); err != nil {
		t.Fatal(err)
	}
	if n := dataflow.Analyses() - before; n != 0 {
		t.Errorf("the run paths called Analyze %d times, want 0", n)
	}
}
