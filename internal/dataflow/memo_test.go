package dataflow_test

import (
	"runtime"
	"testing"

	"netpath/internal/dataflow"
	"netpath/internal/dynamo"
	"netpath/internal/staticpred"
	"netpath/internal/workload"
)

// TestOneAnalysisPerProgram: the static predictor and the tier-2 compile
// workers read the same facts memo, so a program analyzed through
// staticpred and then compiled in tier 2 with bounds elision runs Analyze
// once.
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
	if _, err := staticpred.Analyze(p); err != nil {
		t.Fatal(err)
	}
	tc := dynamo.NewTier2Compiler(1, 256)
	defer tc.Close()
	cfg := dynamo.DefaultConfig(dynamo.SchemeNET, 50)
	cfg.Tier2 = tc
	cfg.Tier2Threshold = 4
	cfg.Tier2Elide = true
	res, err := dynamo.New(p, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	for tc.Compiled()+tc.Rejected() < res.T2Promotions {
		runtime.Gosched()
	}
	if tc.BoundsElided() == 0 {
		t.Fatal("tier 2 elided no bounds check: the compiles read no facts")
	}
	if n := dataflow.Analyses() - before; n != 1 {
		t.Errorf("Analyze ran %d times for one program, want 1", n)
	}
}
