package dynamo

import (
	"testing"
	"time"

	"netpath/internal/chaos"
	"netpath/internal/trace"
)

// kindSet collects the span kinds present in a trace document.
func kindSet(d *trace.Doc) map[string]int {
	m := make(map[string]int)
	for _, s := range d.Spans {
		m[s.Kind]++
	}
	return m
}

// TestTraceSpansTier1 runs a hot loop with a trace attached and checks the
// engine writes trace-select and fragment-emit spans nested under the
// configured parent, with monotonic offsets.
func TestTraceSpansTier1(t *testing.T) {
	p := buildHotLoop(t, 50_000)
	tr := trace.New(trace.NewID(), "test", 256, time.Now())
	root := tr.Begin(trace.SpanRequest, trace.NoSpan, 0, 0)
	exec := tr.Begin(trace.SpanExecute, root, 0, 0)

	cfg := DefaultConfig(SchemeNET, 50)
	cfg.Trace = tr
	cfg.TraceParent = exec
	if _, err := New(p, cfg).Run(); err != nil {
		t.Fatal(err)
	}
	tr.End(exec)
	tr.End(root)

	d := tr.Doc()
	ks := kindSet(d)
	if ks["trace-select"] == 0 || ks["fragment-emit"] == 0 {
		t.Fatalf("missing engine spans: %v", ks)
	}
	byID := make(map[int32]trace.SpanDoc)
	for _, s := range d.Spans {
		byID[s.ID] = s
	}
	for _, s := range d.Spans {
		if s.EndNS < s.StartNS {
			t.Fatalf("span %d non-monotonic: %+v", s.ID, s)
		}
		if s.Kind == "trace-select" || s.Kind == "fragment-emit" {
			if s.Parent != exec {
				t.Fatalf("engine span %d parented to %d, want execute span %d", s.ID, s.Parent, exec)
			}
			p := byID[s.Parent]
			if s.StartNS < p.StartNS {
				t.Fatalf("child %d starts before parent: %+v vs %+v", s.ID, s, p)
			}
		}
	}
}

// TestTraceSpansTier2 checks the background compiler writes tier2-enqueue,
// tier2-compile, and tier2-promote spans into the submitting run's trace —
// including when the compile finishes after the run returned.
func TestTraceSpansTier2(t *testing.T) {
	p := buildHotLoop(t, 200_000)
	tr := trace.New(trace.NewID(), "test", 256, time.Now())
	root := tr.Begin(trace.SpanRequest, trace.NoSpan, 0, 0)
	exec := tr.Begin(trace.SpanExecute, root, 0, 0)

	tc := NewTier2Compiler(1, 64)
	defer tc.Close()
	cfg := DefaultConfig(SchemeNET, 50)
	cfg.Trace = tr
	cfg.TraceParent = exec
	cfg.Tier2 = tc
	cfg.Tier2Threshold = 4
	cfg.Tier2MinFlow = 1
	if _, err := New(p, cfg).Run(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for tc.Compiled() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if tc.Compiled() == 0 {
		t.Fatal("compiler never published")
	}
	tr.End(exec)
	tr.End(root)

	ks := kindSet(tr.Doc())
	if ks["tier2-enqueue"] == 0 || ks["tier2-compile"] == 0 || ks["tier2-promote"] == 0 {
		t.Fatalf("missing tier-2 spans: %v", ks)
	}
	// The promote span nests under its compile span.
	d := tr.Doc()
	var compileID int32 = trace.NoSpan
	for _, s := range d.Spans {
		if s.Kind == "tier2-compile" {
			compileID = s.ID
		}
	}
	found := false
	for _, s := range d.Spans {
		if s.Kind == "tier2-promote" && s.Parent == compileID {
			found = true
		}
	}
	if !found {
		t.Fatalf("tier2-promote not parented to tier2-compile: %+v", d.Spans)
	}
}

// TestTraceNilConfigUnchanged pins the sampled-out contract inside the
// engine: a run with no trace attached behaves identically (the nil checks
// are the whole cost — results must match a traced run's).
func TestTraceNilConfigUnchanged(t *testing.T) {
	p := buildHotLoop(t, 20_000)
	base, err := New(p, DefaultConfig(SchemeNET, 50)).Run()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(SchemeNET, 50)
	cfg.Trace = trace.New(trace.NewID(), "test", 256, time.Now())
	traced, err := New(p, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if base.Steps != traced.Steps || base.Fragments != traced.Fragments ||
		base.PathEvents != traced.PathEvents || base.Cycles != traced.Cycles {
		t.Fatalf("tracing changed execution: base %+v traced %+v", base, traced)
	}
}

// TestEngineEventsMatchCounters pins the one-event-per-site invariant: every
// engine event the Result counts is recorded exactly once as an instant span
// in a traced run. Soft-fault chaos and a two-fragment cache make the rare
// events (flushes, demotions, blacklists, injections) all occur.
func TestEngineEventsMatchCounters(t *testing.T) {
	p := buildHotLoop(t, 50_000)
	tr := trace.New(trace.NewID(), "test", 1<<16, time.Now())
	exec := tr.Begin(trace.SpanExecute, trace.NoSpan, 0, 0)

	cfg := DefaultConfig(SchemeNET, 5)
	cfg.Trace = tr
	cfg.TraceParent = exec
	cfg.MaxFragments = 2
	cfg.Chaos = chaos.NewRandom(1, softRates)
	res, err := New(p, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	tr.End(exec)

	d := tr.Doc()
	if d.Dropped != 0 {
		t.Fatalf("arena too small: %d spans dropped", d.Dropped)
	}
	ks := kindSet(d)
	for _, c := range []struct {
		kind string
		want int64
	}{
		{"fragment-emit", int64(res.Fragments)},
		{"flush", int64(res.Flushes)},
		{"fragment-demote", int64(res.Demotions)},
		{"chaos-inject", res.RecordAborts + res.FragAborts + res.Corruptions + res.ForcedSelections},
	} {
		if c.want == 0 {
			t.Errorf("%s: the run produced no events; the fixture no longer exercises this site", c.kind)
		}
		if got := int64(ks[c.kind]); got != c.want {
			t.Errorf("%s spans = %d, Result counter = %d", c.kind, got, c.want)
		}
	}
	if ks["blacklist"] == 0 {
		t.Error("no blacklist spans: recording aborts and demotions must raise head backoff")
	}
}
