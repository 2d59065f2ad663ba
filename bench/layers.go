package main

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"netpath/internal/cfg"
	"netpath/internal/dataflow"
	"netpath/internal/dynamo"
	"netpath/internal/profile"
	"netpath/internal/trace"
	"netpath/internal/vm"
)

// perLayer lists the traced run's metrics, in report order. Each names a
// repository module; README.md says which end-to-end metric each should
// move, on which workload.
var perLayer = []metricDef{
	{"vm.interp_ns_per_step", "ns", "lower", 0},
	{"profile.collect_ns_per_step", "ns", "lower", 0},
	{"cfg.verify_ms_per_program", "ms", "lower", 0},
	{"dataflow.analyze_ms_per_program", "ms", "lower", 0},
	{"dataflow.validated_per_job", "count", "lower", 0},
	{"dataflow.rejects_per_job", "count", "lower", 0},
	{"dynamo.net.ns_per_step", "ns", "lower", 0},
	{"dynamo.pp.ns_per_step", "ns", "lower", 0},
	{"dynamo.cached_frac", "fraction", "higher", 0},
	{"dynamo.interp_instrs_per_job", "count", "lower", 0},
	{"dynamo.fragments_per_job", "count", "lower", 0},
	{"dynamo.path_events_per_kstep", "count", "lower", 0},
	{"dynamo.frag_enters_per_kstep", "count", "lower", 0},
	{"dynamo.linked_frac", "fraction", "higher", 0},
	{"dynamo.flushes_per_job", "count", "lower", 0},
	{"dynamo.bail_frac", "fraction", "lower", 0},
	{"dynamo.modelled_speedup", "fraction", "higher", 0},
	{"dynamo.measured_vs_interp", "ratio", "higher", 0},
	{"dynamo.trace_select_ms_per_job", "ms", "lower", 0},
	{"dynamo.fragment_emits_per_job", "count", "lower", 0},
	{"tier2.step_frac", "fraction", "higher", 0},
	{"tier2.guard_checks_per_step", "ratio", "lower", 0},
	{"tier2.guard_fail_frac", "fraction", "lower", 0},
	{"tier2.promotions_per_job", "count", "lower", 0},
	{"tier2.deopts_per_job", "count", "lower", 0},
	{"tier2.compiled_per_job", "count", "lower", 0},
	{"tier2.rejected_per_job", "count", "lower", 0},
	{"tier2.dropped_per_job", "count", "lower", 0},
	{"tier2.compile_us_p50", "us", "lower", 0},
	{"tier2.publish_lag_ms_p50", "ms", "lower", 0},
	{"server.queue_ms_p50", "ms", "lower", 0},
	{"server.queue_ms_p99", "ms", "lower", 0},
	{"server.run_ms_p50", "ms", "lower", 0},
	{"server.outside_run_ms_p50", "ms", "lower", 0},
	{"server.restored_frac", "fraction", "higher", 0},
	{"server.shed_frac", "fraction", "lower", 0},
	{"server.degraded_frac", "fraction", "lower", 0},
	{"server.admission_us_p50", "us", "lower", 0},
	{"server.verify_ms_p50", "ms", "lower", 0},
	{"server.execute_ms_p50", "ms", "lower", 0},
	{"snapshot.restore_us_p50", "us", "lower", 0},
	{"snapshot.merge_us_p50", "us", "lower", 0},
	{"trace.overhead_frac", "fraction", "lower", 0},
	{"trace.tiling_gap_frac", "fraction", "lower", 0},
	{"go.gc_cpu_frac", "fraction", "lower", 0},
}

// Shares of -seconds given to the traced run's four phases: the workload
// untraced, the workload traced, the layer phase, and the server probe.
const (
	untracedShare = 0.30
	tracedShare   = 0.30
	layerShare    = 0.25
	probeShare    = 0.15
)

// tracedRun measures the per-layer metrics of one workload in four phases:
//
//   - untraced windows: the workload's own jobs with tracing off, for the
//     trace overhead, the GC share and the served responses' timings;
//   - traced windows, alternating with the untraced ones: the same jobs
//     with request tracing on, for span self times and counts;
//   - layer phase: each layer's public functions timed on the workload's
//     programs, and the workload's job configurations replayed in-process
//     for dynamo.Result counters;
//   - server probe: the workload's programs sent twice each, traced,
//     through a fresh in-process server, so the server, snapshot and
//     tier-2 spans exist on every workload.
func tracedRun(w *workloadDef, seed int64, d time.Duration) (report, error) {
	progs, err := w.prepare(seed)
	if err != nil {
		return report{}, err
	}
	inst, err := w.setup(seed, progs, true)
	if err != nil {
		return report{}, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()
	phase := func(share float64) time.Duration { return time.Duration(share * float64(d)) }
	col := &collector{inst: inst}

	// The untraced and traced windows alternate in slices of about a
	// second, so drift and neighbours' noise fall on both alike.
	var a, b window
	n := max(1, int((phase(untracedShare)+phase(tracedShare))/(2*time.Second)))
	for i := 0; i < n; i++ {
		wa, err := runWindow(inst, phase(untracedShare)/time.Duration(n), false, col.untraced)
		if err != nil {
			return report{}, err
		}
		a.add(wa)
		wb, err := runWindow(inst, phase(tracedShare)/time.Duration(n), true, col.traced)
		if err != nil {
			return report{}, err
		}
		b.add(wb)
	}
	col.finishTraced()
	ls, err := layerPhase(w, progs, phase(layerShare))
	if err != nil {
		return report{}, err
	}
	pa, pf, err := probe(progs, phase(probeShare), col)
	if err != nil {
		return report{}, err
	}
	if a.attempted == 0 || b.attempted == 0 || col.workload.traces == 0 {
		return report{}, fmt.Errorf("a window finished no traced job (untraced %d, traced %d, traces %d)",
			a.attempted, b.attempted, col.workload.traces)
	}

	v := ls.metrics()
	spans := col.workload.merge(&col.probe)
	v["dynamo.trace_select_ms_per_job"] = col.workload.selectNS / 1e6 / float64(col.workload.traces)
	v["dynamo.fragment_emits_per_job"] = float64(col.workload.emits) / float64(col.workload.traces)
	v["tier2.compile_us_p50"] = median(spans.durNS["tier2-compile"]) / 1e3
	v["tier2.publish_lag_ms_p50"] = median(spans.lagNS) / 1e6
	v["server.admission_us_p50"] = median(spans.durNS["admission"]) / 1e3
	v["server.verify_ms_p50"] = median(spans.durNS["verify"]) / 1e6
	v["server.execute_ms_p50"] = median(spans.durNS["execute"]) / 1e6
	v["snapshot.restore_us_p50"] = median(spans.durNS["snapshot-restore"]) / 1e3
	v["snapshot.merge_us_p50"] = median(spans.durNS["snapshot-merge"]) / 1e3
	r := &col.resp
	v["server.queue_ms_p50"] = percentile(r.queueMS, 0.50)
	v["server.queue_ms_p99"] = percentile(r.queueMS, 0.99)
	v["server.run_ms_p50"] = percentile(r.runMS, 0.50)
	v["server.outside_run_ms_p50"] = percentile(r.outsideMS, 0.50)
	v["server.restored_frac"] = ratio(float64(r.restored), float64(r.n))
	v["server.shed_frac"] = ratio(float64(r.shed), float64(r.n))
	v["server.degraded_frac"] = ratio(float64(r.degraded), float64(r.n))
	v["trace.overhead_frac"] = 1 - b.jobsPerSec()/a.jobsPerSec()
	v["trace.tiling_gap_frac"] = col.workload.gap / float64(col.workload.traces)
	v["go.gc_cpu_frac"] = a.gcFrac()

	return report{
		attempted: a.attempted + b.attempted + ls.attempted + pa,
		failed:    a.failed + b.failed + ls.failed + pf,
		defs:      perLayer,
		values:    v,
		notes: []string{
			fmt.Sprintf("untraced %d jobs %.1f/s; traced %d jobs %.1f/s; %d workload traces (%d spans dropped)",
				a.attempted, a.jobsPerSec(), b.attempted, b.jobsPerSec(), col.workload.traces, col.workload.dropped),
			fmt.Sprintf("layer phase %d rounds over %d programs; probe %d requests, %d traces",
				ls.rounds, len(progs), pa, col.probe.traces),
		},
	}, nil
}

// ratio is a ÷ b, or 0 when b is 0 (nothing of that kind happened).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// collector gathers what the windows and the probe observe.
type collector struct {
	inst     instance
	resp     respStats
	workload spanStats // the workload's own traced jobs
	probe    spanStats // the server probe's requests
	// pending is the last in-process traced job; it is read one job later
	// so that the background compiler's late tier-2 spans have landed.
	pending  *trace.Trace
	traceIDs []string // served: retained traces of the traced window
}

func (c *collector) untraced(s sample) {
	if _, ok := c.inst.(*served); ok {
		c.resp.add(s)
	}
}

func (c *collector) traced(s sample) {
	if s.tr != nil {
		if c.pending != nil {
			c.workload.add(c.pending.Doc())
		}
		c.pending = s.tr
	}
	if s.resp != nil && s.resp.TraceID != "" {
		c.traceIDs = append(c.traceIDs, s.resp.TraceID)
	}
}

// finishTraced reads the traces the traced window left: the last
// in-process job's, or the server's retained ones (the newest serverTraces,
// which its trace store still holds).
func (c *collector) finishTraced() {
	switch inst := c.inst.(type) {
	case *inproc:
		drainTier2(inst.t2)
		if c.pending != nil {
			c.workload.add(c.pending.Doc())
			c.pending = nil
		}
	case *served:
		ids := c.traceIDs
		if len(ids) > serverTraces {
			ids = ids[len(ids)-serverTraces:]
		}
		for _, id := range ids {
			if d, err := inst.fetchTrace(id); err == nil {
				c.workload.add(d)
			}
		}
	}
}

// respStats summarizes served responses.
type respStats struct {
	n                         int
	queueMS, runMS, outsideMS []float64
	restored, shed, degraded  int
}

func (r *respStats) add(s sample) {
	r.n++
	if s.status == 503 {
		r.shed++
	}
	if s.resp == nil {
		return
	}
	q, run := float64(s.resp.QueueNS)/1e6, float64(s.resp.RunNS)/1e6
	r.queueMS = append(r.queueMS, q)
	r.runMS = append(r.runMS, run)
	r.outsideMS = append(r.outsideMS, ms(s.lat)-q-run)
	if s.resp.Restored > 0 {
		r.restored++
	}
	if s.resp.Degraded {
		r.degraded++
	}
}

// spanStats summarizes trace documents.
type spanStats struct {
	traces   int
	dropped  int64
	selectNS float64 // self time of trace-select spans
	emits    int
	gap      float64 // Σ over traces of root self time ÷ root duration
	durNS    map[string][]float64
	lagNS    []float64 // tier2-enqueue start → tier2-promote, per promotion
}

// serverKinds are the span kinds whose durations only a served request's
// trace records; an in-process job's root is an execute span of its own.
var serverKinds = map[string]bool{
	"admission": true, "verify": true, "execute": true,
	"snapshot-restore": true, "snapshot-merge": true,
}

func (st *spanStats) add(d *trace.Doc) {
	if d == nil {
		return
	}
	spans := d.Spans
	children := make([][]int, len(spans))
	root := -1
	for i, s := range spans {
		switch {
		case s.Parent == trace.NoSpan && root < 0:
			root = i
		case s.Parent >= 0 && int(s.Parent) < len(spans):
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	if root < 0 {
		return
	}
	if st.durNS == nil {
		st.durNS = map[string][]float64{}
	}
	st.traces++
	st.dropped += int64(d.Dropped)
	if dur := spans[root].EndNS - spans[root].StartNS; dur > 0 {
		st.gap += float64(selfNS(spans, children, root)) / float64(dur)
	}
	servedTrace := spans[root].Kind == "request"
	enqueued := map[int32]int64{}
	for i, s := range spans {
		dur := float64(s.EndNS - s.StartNS)
		switch s.Kind {
		case "trace-select":
			// A recording still open when the run halts is never ended; the
			// document closes it at read time. Selection cannot outlive its
			// run, so clip it to the parent's span.
			if p := s.Parent; p >= 0 && int(p) < len(spans) && spans[p].EndNS < s.EndNS {
				spans[i].EndNS = max(spans[p].EndNS, s.StartNS)
			}
			st.selectNS += float64(selfNS(spans, children, i))
		case "fragment-emit":
			st.emits++
		case "tier2-enqueue":
			enqueued[s.Site] = s.StartNS
		case "tier2-compile":
			if s.Arg > 0 { // refused compiles carry -1
				st.durNS[s.Kind] = append(st.durNS[s.Kind], dur)
			}
		case "tier2-promote":
			if t, ok := enqueued[s.Site]; ok {
				st.lagNS = append(st.lagNS, float64(s.StartNS-t))
			}
		default:
			if servedTrace && serverKinds[s.Kind] {
				st.durNS[s.Kind] = append(st.durNS[s.Kind], dur)
			}
		}
	}
}

// merge pools two sets of span samples.
func (st *spanStats) merge(o *spanStats) spanStats {
	m := spanStats{durNS: map[string][]float64{}}
	for _, s := range []*spanStats{st, o} {
		for k, v := range s.durNS {
			m.durNS[k] = append(m.durNS[k], v...)
		}
		m.lagNS = append(m.lagNS, s.lagNS...)
	}
	return m
}

// selfNS is span i's duration less the part of it its children cover.
func selfNS(spans []trace.SpanDoc, children [][]int, i int) int64 {
	s, e := spans[i].StartNS, spans[i].EndNS
	type iv struct{ s, e int64 }
	var ivs []iv
	for _, c := range children[i] {
		cs, ce := max(spans[c].StartNS, s), min(spans[c].EndNS, e)
		if ce > cs {
			ivs = append(ivs, iv{cs, ce})
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int { return cmp.Compare(a.s, b.s) })
	covered, end := int64(0), s
	for _, v := range ivs {
		if v.e <= end {
			continue
		}
		covered += v.e - max(v.s, end)
		end = v.e
	}
	return e - s - covered
}

// resultSums accumulates dynamo.Result counters over replayed jobs, each
// weighted by its program's share of the workload.
type resultSums struct {
	jobs, steps, interp, frag, native                     float64
	pathEvents, fragEnters, linked, fragments, flushes    float64
	bailed, validated, rejects                            float64
	t2Instrs, t2Checks, t2Enters, t2Fails, t2Prom, t2Deop float64
}

func (s *resultSums) add(r dynamo.Result, w float64) {
	s.jobs += w
	s.steps += w * float64(r.Steps)
	s.interp += w * float64(r.InterpInstrs)
	s.frag += w * float64(r.FragInstrs)
	s.native += w * float64(r.NativeInstrs)
	s.pathEvents += w * float64(r.PathEvents)
	s.fragEnters += w * float64(r.FragEnters)
	s.linked += w * float64(r.LinkedJumps)
	s.fragments += w * float64(r.Fragments)
	s.flushes += w * float64(r.Flushes)
	if r.BailedOut {
		s.bailed += w
	}
	s.validated += w * float64(r.ValidatorChecked+r.T2ValidatorChecked)
	s.rejects += w * float64(r.ValidatorRejects+r.T2ValidatorRejects)
	s.t2Instrs += w * float64(r.T2Instrs)
	s.t2Checks += w * float64(r.T2GuardChecks)
	s.t2Enters += w * float64(r.T2Enters)
	s.t2Fails += w * float64(r.T2GuardFails)
	s.t2Prom += w * float64(r.T2Promotions)
	s.t2Deop += w * float64(r.T2Deopts)
}

// layerStats is the layer phase's measurements. Timings are per program,
// one sample per round; the per-program median enters the weighted sums.
type layerStats struct {
	progs                       []program
	vm, prof, verify, net, pp   [][]float64 // ns
	analyze                     [][]float64 // ns, over the tier2_loops programs
	netRes                      []dynamo.Result
	jobs                        resultSums // the workload's own job configurations
	t2runs                      int
	compiled, rejected, dropped int64
	rounds                      int
	attempted, failed           int64
}

// layerPhase times each layer's public functions on progs, in rounds until
// budget is spent (at least one round): vm.New+Run, profile.Collect,
// cfg.VerifyProgram, the Figure 5 pair (NET and PathProfile, tier 1), the
// workload's own job configurations, and dataflow.Analyze over the
// tier2_loops programs.
func layerPhase(w *workloadDef, progs []program, budget time.Duration) (*layerStats, error) {
	t2 := newTier2Compiler()
	defer t2.Close()
	pair := fig5Shapes(nil)
	runs := pair
	own := map[string]bool{}
	for _, sh := range w.shapes(t2) {
		own[sh.label] = true
		if sh.label != pair[0].label && sh.label != pair[1].label {
			runs = append(runs, sh)
		}
	}
	analyzeProgs, err := benchPrograms(tier2Names, ones(len(tier2Names)), 0.2)
	if err != nil {
		return nil, err
	}
	n := len(progs)
	ls := &layerStats{
		progs: progs, vm: make([][]float64, n), prof: make([][]float64, n),
		verify: make([][]float64, n), net: make([][]float64, n), pp: make([][]float64, n),
		analyze: make([][]float64, len(analyzeProgs)), netRes: make([]dynamo.Result, n),
	}
	// Verify each program once through dynamo's memoized gate first, so the
	// timed jobs cost what a warm job costs; the verifier has its own row.
	for _, pr := range progs {
		dynamo.New(pr.p, pair[0].cfg)
	}
	start := time.Now()
	for ; ls.rounds == 0 || time.Since(start) < budget; ls.rounds++ {
		for i, pr := range progs {
			var got outcome
			ls.vm[i] = append(ls.vm[i], timeNS(func() {
				m := vm.New(pr.p)
				err = m.Run(0)
				got = outcome{Steps: m.Steps, Regs: m.Reg, Fault: faultID(err)}
			}))
			ls.check(got == pr.want)
			ls.prof[i] = append(ls.prof[i], timeNS(func() { _, err = profile.Collect(pr.p, 0) }))
			ls.check(err == nil || pr.want.Fault != "")
			ls.verify[i] = append(ls.verify[i], timeNS(func() { err = cfg.VerifyProgram(pr.p) }))
			ls.check(err == nil)
			for _, sh := range runs {
				var res dynamo.Result
				t := timeNS(func() { res, got = runDynamo(pr.p, sh.cfg, nil) })
				ls.check(got == pr.want)
				switch sh.label {
				case pair[0].label:
					ls.net[i] = append(ls.net[i], t)
					ls.netRes[i] = res
				case pair[1].label:
					ls.pp[i] = append(ls.pp[i], t)
				}
				if own[sh.label] {
					ls.jobs.add(res, pr.weight)
					if sh.cfg.Tier2 != nil {
						ls.t2runs++
					}
				}
			}
		}
		for i, pr := range analyzeProgs {
			ls.analyze[i] = append(ls.analyze[i], timeNS(func() { _, err = dataflow.Analyze(pr.p) }))
			ls.check(err == nil)
		}
	}
	drainTier2(t2)
	ls.compiled, ls.rejected, ls.dropped = t2.Compiled(), t2.Rejected(), t2.Dropped()
	return ls, nil
}

func (ls *layerStats) check(ok bool) {
	ls.attempted++
	if !ok {
		ls.failed++
	}
}

func timeNS(f func()) float64 {
	t0 := time.Now()
	f()
	return float64(time.Since(t0))
}

// metrics computes the layer phase's per-layer metrics.
func (ls *layerStats) metrics() map[string]float64 {
	var wsum, steps, vmNS, profNS, verNS, netNS, ppNS, logRatio, modelled float64
	for i, pr := range ls.progs {
		w := pr.weight
		wsum += w
		steps += w * float64(pr.want.Steps)
		vmNS += w * median(ls.vm[i])
		profNS += w * median(ls.prof[i])
		verNS += w * median(ls.verify[i])
		netNS += w * median(ls.net[i])
		ppNS += w * median(ls.pp[i])
		logRatio += w * math.Log(median(ls.vm[i])/median(ls.net[i]))
		modelled += w * ls.netRes[i].Speedup()
	}
	var analyzeNS float64
	for _, xs := range ls.analyze {
		analyzeNS += median(xs)
	}
	j := &ls.jobs
	t2runs := float64(ls.t2runs)
	return map[string]float64{
		"vm.interp_ns_per_step":           vmNS / steps,
		"profile.collect_ns_per_step":     profNS / steps,
		"cfg.verify_ms_per_program":       verNS / wsum / 1e6,
		"dataflow.analyze_ms_per_program": analyzeNS / float64(len(ls.analyze)) / 1e6,
		"dataflow.validated_per_job":      ratio(j.validated, j.jobs),
		"dataflow.rejects_per_job":        ratio(j.rejects, j.jobs),
		"dynamo.net.ns_per_step":          netNS / steps,
		"dynamo.pp.ns_per_step":           ppNS / steps,
		"dynamo.modelled_speedup":         modelled / wsum,
		"dynamo.measured_vs_interp":       math.Exp(logRatio / wsum),
		"dynamo.cached_frac":              ratio(j.frag, j.interp+j.frag+j.native),
		"dynamo.interp_instrs_per_job":    ratio(j.interp, j.jobs),
		"dynamo.fragments_per_job":        ratio(j.fragments, j.jobs),
		"dynamo.path_events_per_kstep":    1000 * ratio(j.pathEvents, j.steps),
		"dynamo.frag_enters_per_kstep":    1000 * ratio(j.fragEnters, j.steps),
		"dynamo.linked_frac":              ratio(j.linked, j.linked+j.fragEnters),
		"dynamo.flushes_per_job":          ratio(j.flushes, j.jobs),
		"dynamo.bail_frac":                ratio(j.bailed, j.jobs),
		"tier2.step_frac":                 ratio(j.t2Instrs, j.steps),
		"tier2.guard_checks_per_step":     ratio(j.t2Checks, j.t2Instrs),
		"tier2.guard_fail_frac":           ratio(j.t2Fails, j.t2Enters+j.t2Fails),
		"tier2.promotions_per_job":        ratio(j.t2Prom, j.jobs),
		"tier2.deopts_per_job":            ratio(j.t2Deop, j.jobs),
		"tier2.compiled_per_job":          ratio(float64(ls.compiled), t2runs),
		"tier2.rejected_per_job":          ratio(float64(ls.rejected), t2runs),
		"tier2.dropped_per_job":           ratio(float64(ls.dropped), t2runs),
	}
}

// probe sends each program twice per pass (at least two passes, then until
// budget is spent) through a fresh traced server, sequentially, and reads
// every request's trace. The first pass is cold; later passes restore from
// the snapshot store.
func probe(progs []program, budget time.Duration, col *collector) (attempted, failed int64, err error) {
	s, err := startServer(serverTraces, 1)
	if err != nil {
		return 0, 0, err
	}
	defer s.close()
	jobs := make([]job, len(progs))
	for i, pr := range progs {
		body, err := requestBody("probe", pr, nil)
		if err != nil {
			return 0, 0, err
		}
		jobs[i] = job{label: pr.p.Name, tenant: "probe", body: body, want: pr.want}
	}
	// A request's trace is read after the next request returns, so its late
	// tier-2 spans have landed.
	prev := ""
	read := func() {
		if prev != "" {
			if d, err := s.fetchTrace(prev); err == nil {
				col.probe.add(d)
			}
		}
		prev = ""
	}
	start := time.Now()
	for pass := 0; pass < 2 || time.Since(start) < budget; pass++ {
		for _, j := range jobs {
			r := s.do(j, false)
			attempted++
			if !r.ok {
				failed++
			}
			col.resp.add(r)
			read()
			if r.resp != nil {
				prev = r.resp.TraceID
			}
		}
	}
	read()
	return attempted, failed, nil
}
