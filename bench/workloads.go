package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"

	"netpath/internal/dynamo"
	"netpath/internal/isa"
	"netpath/internal/prog"
	"netpath/internal/randprog"
	"netpath/internal/trace"
	"netpath/internal/vm"
	"netpath/internal/workload"
)

// tau is the prediction delay of every job (Figure 5's middle setting and
// the server's default).
const tau = 50

// Load shape. In-process jobs have one caller; served workloads have two
// client goroutines over two keep-alive connections, matching the two
// server workers on a two-core machine.
const (
	servedClients = 2
	serveWorkers  = 2
	tenants       = 4
)

// freshStepCap is the reference-run step budget above which serve_fresh
// skips a generated program: about 1.5% of default-option seeds exceed it,
// and a few of those exhaust the server's 50M-step default budget.
const freshStepCap = 1_000_000

// Trace arena sizes. An in-process Figure 5 job can select and emit hundreds
// of traces; a served request restores most of its fragments instead.
const (
	inprocSpans  = 1 << 14
	serverSpans  = 1 << 12
	serverTraces = 256
)

// outcome is the architectural result a job must reproduce: final
// registers, step count and fault identity.
type outcome struct {
	Steps int64
	Regs  [isa.NumRegs]int64
	Fault string // "kind@pc" of the fault that ended the run; "" = halted
}

// reference runs p on the legacy switch engine, which shares no dispatch
// code with predecoded, fragment or superblock execution. maxSteps <= 0
// means unlimited; a run that hits the limit returns vm.ErrStepLimit.
func reference(p *prog.Program, maxSteps int64) (outcome, error) {
	m := vm.New(p)
	m.SetEngine(vm.EngineLegacy)
	err := m.Run(maxSteps)
	if errors.Is(err, vm.ErrStepLimit) {
		return outcome{}, err
	}
	return outcome{Steps: m.Steps, Regs: m.Reg, Fault: faultID(err)}, nil
}

// faultID names the fault that ended a run, or any other run error.
func faultID(err error) string {
	var f *vm.Fault
	if errors.As(err, &f) {
		return fmt.Sprintf("%v@%d", f.Kind, f.PC)
	}
	if err != nil {
		return err.Error()
	}
	return ""
}

// program is one of a workload's programs with its reference outcome.
type program struct {
	p      *prog.Program
	weight float64 // share of the workload's jobs
	want   outcome
	// bench and scale name a built-in benchmark, so a program whose
	// document exceeds the server's body quota can be sent by name.
	bench string
	scale float64
}

// benchPrograms builds the named benchmarks at scale with the given weights
// and computes their references.
func benchPrograms(names []string, weights []float64, scale float64) ([]program, error) {
	out := make([]program, len(names))
	for i, name := range names {
		p, err := buildBench(name, scale)
		if err != nil {
			return nil, err
		}
		want, err := reference(p, 0)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", name, err)
		}
		out[i] = program{p: p, weight: weights[i], want: want, bench: name, scale: scale}
	}
	return out, nil
}

func buildBench(name string, scale float64) (*prog.Program, error) {
	b, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	p, err := b.Build(scale)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", name, err)
	}
	return p, nil
}

// rebuild builds fresh copies of progs (new program identities, so every
// per-program memo in the system starts empty) and checks each against the
// copy its reference was computed from.
func rebuild(progs []program) ([]*prog.Program, error) {
	out := make([]*prog.Program, len(progs))
	for i, pr := range progs {
		p, err := buildBench(pr.bench, pr.scale)
		if err != nil {
			return nil, err
		}
		if p.Fingerprint() != pr.p.Fingerprint() {
			return nil, fmt.Errorf("%s: rebuilt program differs from its reference copy", pr.bench)
		}
		out[i] = p
	}
	return out, nil
}

// freshPrograms generates n serve_fresh programs from counter on.
func freshPrograms(seed, counter int64, n int) ([]program, error) {
	var out []program
	for ; len(out) < n; counter++ {
		p, want, ok, err := freshProgram(seed, counter)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, program{p: p, weight: 1, want: want})
		}
	}
	return out, nil
}

// freshProgram generates the program for (seed, counter). ok is false when
// its reference run exceeds freshStepCap and the generator skips it.
func freshProgram(seed, counter int64) (*prog.Program, outcome, bool, error) {
	p, err := randprog.Generate(seed<<32+counter, randprog.Options{})
	if err != nil {
		return nil, outcome{}, false, err
	}
	want, err := reference(p, freshStepCap)
	if errors.Is(err, vm.ErrStepLimit) {
		return nil, outcome{}, false, nil
	}
	return p, want, err == nil, err
}

// Job configurations.

// fig5Config is a Figure 5 cell's configuration. PathProfile runs to
// completion (no bail-out), as experiments.RunFig5 runs it.
func fig5Config(s dynamo.Scheme) dynamo.Config {
	cfg := dynamo.DefaultConfig(s, tau)
	if s != dynamo.SchemeNET {
		cfg.BailoutAfter = 0
	}
	return cfg
}

// tier2Config is a tier2_loops job: NET with background superblock
// compilation on the shared compiler, proven guard elision and the
// translation validator.
func tier2Config(c *dynamo.Tier2Compiler) dynamo.Config {
	cfg := dynamo.DefaultConfig(dynamo.SchemeNET, tau)
	cfg.Tier2 = c
	cfg.Tier2Threshold = 8
	cfg.Tier2Elide = true
	cfg.ValidateEmits = true
	return cfg
}

// serveConfig is what a served request runs: the server's NET
// configuration with tier 2 at its default threshold. The layer phase uses
// it to replay served programs in-process.
func serveConfig(c *dynamo.Tier2Compiler) dynamo.Config {
	cfg := dynamo.DefaultConfig(dynamo.SchemeNET, tau)
	cfg.Tier2 = c
	return cfg
}

// shape is one job configuration of a workload, labelled for reports.
type shape struct {
	label string
	cfg   dynamo.Config
}

// newTier2Compiler is the compile service of in-process tier-2 jobs: one
// worker, as on the server, and a queue deep enough that promotions are not
// dropped.
func newTier2Compiler() *dynamo.Tier2Compiler { return dynamo.NewTier2Compiler(1, 256) }

// runDynamo runs p under cfg and returns its result and outcome. With tr
// non-nil the engine records its spans under a root execute span opened
// around the call.
func runDynamo(p *prog.Program, cfg dynamo.Config, tr *trace.Trace) (dynamo.Result, outcome) {
	if tr != nil {
		cfg.Trace = tr
		cfg.TraceParent = tr.Begin(trace.SpanExecute, trace.NoSpan, 0, 0)
		defer tr.End(cfg.TraceParent)
	}
	sys := dynamo.New(p, cfg)
	res, err := sys.Run()
	m := sys.Machine()
	return res, outcome{Steps: m.Steps, Regs: m.Reg, Fault: faultID(err)}
}

// Job sequences.

// job is one unit of closed-loop work: an in-process cell or an HTTP
// submission.
type job struct {
	label  string
	cell   int    // in-process: index into the instance's cells
	tenant string // served
	body   []byte // served: the POST /v1/run body
	want   outcome
}

// sequence hands out a run's jobs in an order fixed by the seed. The
// clients share it, so next is safe for concurrent use.
type sequence interface {
	next() (job, error)
}

// deck deals a fixed set of jobs in seeded shuffled order. With reshuffle
// every round gets a new order; without, one seeded order repeats
// round-robin.
type deck struct {
	mu        sync.Mutex
	rng       *rand.Rand
	jobs      []job
	pos       int
	reshuffle bool
}

func newDeck(seed int64, jobs []job, reshuffle bool) *deck {
	d := &deck{rng: rand.New(rand.NewPCG(uint64(seed), 0x6e6574)), jobs: jobs, reshuffle: reshuffle}
	d.shuffle()
	return d
}

func (d *deck) shuffle() {
	d.rng.Shuffle(len(d.jobs), func(i, j int) { d.jobs[i], d.jobs[j] = d.jobs[j], d.jobs[i] })
}

func (d *deck) next() (job, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.pos == len(d.jobs) {
		d.pos = 0
		if d.reshuffle {
			d.shuffle()
		}
	}
	d.pos++
	return d.jobs[d.pos-1], nil
}

// freshSeq generates a distinct program per job, client-side: program
// seed·2^32+counter for counter = 0, 1, ..., skipping programs whose
// reference run exceeds freshStepCap, each from a seeded tenant.
type freshSeq struct {
	mu      sync.Mutex
	seed    int64
	counter int64
	rng     *rand.Rand
}

func newFreshSeq(seed int64) *freshSeq {
	return &freshSeq{seed: seed, rng: rand.New(rand.NewPCG(uint64(seed), 0x667265))}
}

func (f *freshSeq) next() (job, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		p, want, ok, err := freshProgram(f.seed, f.counter)
		f.counter++
		if err != nil {
			return job{}, err
		}
		if !ok {
			continue
		}
		tenant := tenantName(f.rng.IntN(tenants))
		body, err := requestBody(tenant, program{p: p}, nil)
		if err != nil {
			return job{}, err
		}
		return job{label: p.Name, tenant: tenant, body: body, want: want}, nil
	}
}

func tenantName(i int) string { return fmt.Sprintf("t%d", i) }

// maxDocBytes keeps a document plus its envelope inside the server's
// default 1 MiB body quota; larger programs go by benchmark name.
const maxDocBytes = 1<<20 - 1024

// requestBody encodes a POST /v1/run submission of pr for tenant. doc is
// pr's netpath-prog/v1 document (nil: encode it here).
func requestBody(tenant string, pr program, doc []byte) ([]byte, error) {
	req := struct {
		Tenant string          `json:"tenant"`
		Prog   json.RawMessage `json:"prog,omitempty"`
		Bench  string          `json:"bench,omitempty"`
		Scale  float64         `json:"scale,omitempty"`
	}{Tenant: tenant}
	if doc == nil {
		var err error
		if doc, err = prog.EncodeJSON(pr.p); err != nil {
			return nil, fmt.Errorf("encode %s: %w", pr.p.Name, err)
		}
	}
	if len(doc) > maxDocBytes && pr.bench != "" {
		req.Bench, req.Scale = pr.bench, pr.scale
	} else {
		req.Prog = doc
	}
	return json.Marshal(req)
}

// servedJobs encodes a submission of every program for every tenant,
// program-major. Each document is encoded once.
func servedJobs(progs []program) ([]job, error) {
	var jobs []job
	for _, pr := range progs {
		doc, err := prog.EncodeJSON(pr.p)
		if err != nil {
			return nil, fmt.Errorf("encode %s: %w", pr.p.Name, err)
		}
		for t := 0; t < tenants; t++ {
			body, err := requestBody(tenantName(t), pr, doc)
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, job{label: pr.p.Name, tenant: tenantName(t), body: body, want: pr.want})
		}
	}
	return jobs, nil
}

// repeatSeq deals serve_repeat's programs in proportion to their weights
// from a deck reshuffled every round, each to a seeded random tenant. A
// round is one pass over the weights, so any window holds the mix to
// within one round.
type repeatSeq struct {
	mu       sync.Mutex
	programs *deck // one job per unit of weight; cell is the program index
	rng      *rand.Rand
	jobs     []job // servedJobs: program-major, one per tenant
}

func newRepeatSeq(seed int64, progs []program, jobs []job) *repeatSeq {
	var slots []job
	for i, pr := range progs {
		for k := 0; k < int(pr.weight); k++ {
			slots = append(slots, job{cell: i})
		}
	}
	return &repeatSeq{
		programs: newDeck(seed, slots, true),
		rng:      rand.New(rand.NewPCG(uint64(seed), 0x726570)),
		jobs:     jobs,
	}
}

func (r *repeatSeq) next() (job, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	slot, err := r.programs.next()
	return r.jobs[slot.cell*tenants+r.rng.IntN(tenants)], err
}

// The workloads.

// workloadDef is one named traffic mix.
type workloadDef struct {
	name string
	why  string
	// prepare does the load generator's untimed work: it builds the
	// workload's programs with their references (the layer phase and the
	// server probe use the same set).
	prepare func(seed int64) ([]program, error)
	// shapes lists the job configurations the workload runs; the layer
	// phase replays them in-process. tier2 says they need a compiler.
	shapes func(t2 *dynamo.Tier2Compiler) []shape
	tier2  bool
	// jobs returns the job sequence for seed and, for served workloads,
	// the warm-up submissions. Served workloads encode their documents
	// here, inside the timed set-up.
	jobs   func(seed int64, progs []program) (sequence, []job, error)
	served bool
	// warmRounds is how many times an in-process set-up runs every cell.
	warmRounds int
}

// setup is the timed system set-up: it returns an instance ready for
// measurement. traced turns on the server's trace store.
func (w *workloadDef) setup(seed int64, progs []program, traced bool) (instance, error) {
	seq, warm, err := w.jobs(seed, progs)
	if err != nil {
		return nil, err
	}
	if w.served {
		return setupServed(seq, warm, traced)
	}
	return setupInproc(w, seq, progs)
}

var fig5Names = []string{"compress", "gcc", "go", "ijpeg", "li", "m88ksim", "perl", "vortex", "deltablue"}

var tier2Names = []string{"compress", "deltablue", "ijpeg", "li", "m88ksim"}

// serveNames and serveWeights are serve_repeat's fixed mix. gcc and vortex
// are about 3% of requests: rare enough that a 25-second window on two
// cores collects about a thousand latency samples or more, common enough
// that they set the p99.
var (
	serveNames   = []string{"compress", "deltablue", "ijpeg", "m88ksim", "li", "go", "perl", "vortex", "gcc"}
	serveWeights = []float64{12, 12, 12, 9, 9, 6, 6, 1, 1}
)

func ones(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// freshLayerPrograms is the size of serve_fresh's fixed program sample for
// warm-up (once per tenant), the layer phase and the probe. It stays under
// the snapshot store's 64 profiles so the probe's second pass restores
// every one.
const freshLayerPrograms = 32

// freshLayerSeed and freshLayerBase place that sample: the same for every
// run seed, so set-up and layer costs compare across seeds (generated
// programs' run times are heavy-tailed), and far from any timed sequence.
const (
	freshLayerSeed = 0
	freshLayerBase = 1 << 31
)

var workloads = []*workloadDef{
	{
		name: "fig5_grid",
		why:  "Figure 5 on the wall clock: interpreter, NET head counters, bit-tracing path profiling, trace recording and fragment dispatch do all the work",
		prepare: func(int64) ([]program, error) {
			return benchPrograms(fig5Names, ones(len(fig5Names)), 0.05)
		},
		shapes: fig5Shapes,
		jobs: func(seed int64, progs []program) (sequence, []job, error) {
			return newDeck(seed, cellJobs(progs, fig5Shapes), true), nil, nil
		},
		warmRounds: 1,
	},
	{
		name: "tier2_loops",
		why:  "superblock compile and dispatch, guard elision and the translation validator do most of the work; m88ksim is the flat profile the flow gate holds at 1.00x",
		prepare: func(int64) ([]program, error) {
			return benchPrograms(tier2Names, ones(len(tier2Names)), 0.1)
		},
		shapes: tier2Shapes,
		tier2:  true,
		jobs: func(seed int64, progs []program) (sequence, []job, error) {
			return newDeck(seed, cellJobs(progs, tier2Shapes), false), nil, nil
		},
		warmRounds: 2,
	},
	{
		name: "serve_repeat",
		why:  "repeat submissions: JSON decode, admission, static verification and snapshot restore/merge-back outweigh guest execution",
		prepare: func(int64) ([]program, error) {
			return benchPrograms(serveNames, serveWeights, 0.01)
		},
		shapes: serveShapes,
		jobs: func(seed int64, progs []program) (sequence, []job, error) {
			all, err := servedJobs(progs)
			if err != nil {
				return nil, nil, err
			}
			return newRepeatSeq(seed, progs, all), all, nil
		},
		served: true,
	},
	{
		name: "serve_fresh",
		why:  "every request a distinct generated program: HTTP/JSON, admission, cold translation and snapshot-store inserts with FIFO eviction dominate",
		prepare: func(int64) ([]program, error) {
			return freshPrograms(freshLayerSeed, freshLayerBase, freshLayerPrograms)
		},
		shapes: serveShapes,
		jobs: func(seed int64, progs []program) (sequence, []job, error) {
			warm, err := servedJobs(progs)
			return newFreshSeq(seed), warm, err
		},
		served: true,
	},
}

func fig5Shapes(*dynamo.Tier2Compiler) []shape {
	return []shape{{"NET", fig5Config(dynamo.SchemeNET)}, {"PP", fig5Config(dynamo.SchemePathProfile)}}
}

func tier2Shapes(c *dynamo.Tier2Compiler) []shape {
	return []shape{{"NET+T2", tier2Config(c)}}
}

func serveShapes(c *dynamo.Tier2Compiler) []shape {
	return []shape{{"NET+T2", serveConfig(c)}}
}

func lookupWorkload(name string) (*workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
