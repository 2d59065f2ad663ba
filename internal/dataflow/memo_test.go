package dataflow_test

import (
	"runtime"
	"testing"

	"netpath/internal/dataflow"
	"netpath/internal/dynamo"
	"netpath/internal/staticpred"
	"netpath/internal/workload"
)

// TestOneAnalysisPerProgram: a tier-2 compile never analyses the program,
// even with every superblock validated, and the static predictor runs the
// whole-program analysis once.
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
	if n := dataflow.Analyses() - before; n != 0 {
		t.Errorf("a validated tier-2 run ran Analyze %d times, want 0", n)
	}
	if _, err := staticpred.Analyze(p); err != nil {
		t.Fatal(err)
	}
	if n := dataflow.Analyses() - before; n != 1 {
		t.Errorf("Analyze ran %d times for one program, want 1", n)
	}
}
