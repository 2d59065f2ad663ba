// Tier-2 execution: background superblock compilation with atomic fragment
// promotion.
//
// The tier-1 fragment executor (runFragment) pays a per-micro-op handler
// call, a successor compare, and a budget check per guest step. Tier 2
// removes all three for the dominant path: when a fragment's completions in
// this run cross a threshold, the mutator snapshots the fragment chain
// reachable through completion links and enqueues it on a bounded compile
// queue served by background workers (internal/par's resident pool). A
// worker lowers the chain with vm.CompileSuperblock — guard hoisting,
// redundant-guard elimination, fused micro-ops — and publishes the result
// with a single atomic pointer store into the fragment. The mutator picks it
// up at its next dispatch of that fragment. The mutator never waits on the
// compiler: a full queue drops the promotion (retried after another
// threshold's worth of completions), and a refused compile publishes a
// tombstone so the fragment is never re-enqueued.
//
// Ownership discipline (what makes this -race clean): a Fragment's t2 field
// is the ONLY field a compile worker writes, and it is atomic; every other
// tier-2 field (t2Queued, t2Next, t2Base, counters) is mutator-only. The job
// carries snapshot copies of the trace — the worker never reads live
// fragment state.
//
// Accounting: a completed superblock is architecturally identical to
// running its guest steps through tier 1, so the run's counters are settled
// arithmetically at the exit from prefix sums recorded at compile time
// (redirects = recorded successors that don't fall through; this matches
// OnBranch, which counts a redirect for every executed transfer with
// Target != PC+1). On-trace execution emits no branch events; a diverging
// op replays through the per-step engine and accounts itself. The flush,
// bail-out, and promotion heuristics run at fragment boundaries within the
// block — the tiered-JIT granularity trade: heuristics fire at block exits
// rather than per guest step.
package dynamo

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"netpath/internal/dataflow"
	"netpath/internal/par"
	"netpath/internal/prog"
	"netpath/internal/telemetry"
	"netpath/internal/trace"
	"netpath/internal/vm"
)

// Tier-2 telemetry. Promotions and deopts are rare and bumped unsampled at
// their sites through the System's sink; the compiler-side instruments
// (compiled/rejects/queue) are written directly by the background workers,
// which are off the guest's dispatch path.
var (
	telT2Promotions = telemetry.NewCounter("dynamo_tier2_promotions_total",
		"fragments enqueued for background superblock compilation")
	telT2Compiled = telemetry.NewCounter("dynamo_tier2_compiled_total",
		"superblocks compiled and atomically published")
	telT2Rejects = telemetry.NewCounter("dynamo_tier2_compile_rejects_total",
		"compiles refused by the superblock compiler (fragment tombstoned)")
	telT2Deopts = telemetry.NewCounter("dynamo_tier2_deopts_total",
		"published superblocks torn down after entry-guard/short-run storms")
	telT2Dropped = telemetry.NewCounter("dynamo_tier2_queue_dropped_total",
		"promotions dropped on a full or closed compile queue")
	telT2QueueDepth = telemetry.NewGauge("dynamo_tier2_queue_depth",
		"tier-2 compile jobs queued and not yet picked up")
	telT2CompileUs = telemetry.NewHistogram("dynamo_tier2_compile_us",
		"background superblock compile latency, microseconds")
)

// t2Block is a published tier-2 compilation of a fragment chain. Immutable
// after publication. A tombstone (sb == nil) records a refused compile:
// dispatch skips it and promotion never re-enqueues the fragment.
type t2Block struct {
	sb     *vm.Superblock
	nGuest int32
	// stats is the compiler's report for this block (guards hoisted,
	// statically elided checks); folded into the run's counters by the
	// mutator at first pickup (creditT2Block).
	stats vm.SBStats
	// validated/rejected record the translation validator's verdict; a
	// rejected block is a tombstone (sb == nil) that also explains itself.
	validated bool
	rejected  bool
	// redirPfx[i] counts recorded successors among the first i guest steps
	// that do not fall through — the redirects OnBranch would have counted.
	redirPfx []int32
	// elimPfx[i] counts optimizer-eliminated guest steps among the first i,
	// for the cycle model's free-instruction accounting.
	elimPfx []int32
	// bounds maps guest indices back to the chained fragments for
	// completion/linking credit; bounds[i] covers [bounds[i-1].end, end).
	bounds []t2Bound
}

// t2Bound is one chained fragment's extent within a superblock.
type t2Bound struct {
	fr  *Fragment
	end int32 // one past this fragment's last guest step
}

// t2Job is a snapshot handed to a compile worker. The mutator builds it from
// live fragments; after enqueue the worker owns it exclusively.
type t2Job struct {
	fr      *Fragment // promotion target; receives the published block
	spec    []vm.SBStep
	elim    []bool
	bounds  []t2Bound
	prog    *prog.Program // immutable; safe to share with the worker
	progLen int
	// elide lowers the block against the program's dataflow facts;
	// validate runs the translation validator before publication. Both are
	// resolved on the worker (the analysis is memoized per program), so the
	// mutator never pays for either.
	elide    bool
	validate bool

	// Request-scoped tracing (nil = sampled out). The worker writes the
	// tier2-compile and tier2-promote spans into the submitting run's trace;
	// the arena is mutex-guarded, so a compile finishing after the response
	// still lands in the published tree.
	tr       *trace.Trace
	trParent int32
}

// Tier2Compiler is the shared background compile service: a bounded
// multi-tenant job queue drained round-robin by resident workers. One
// compiler is typically shared by many Systems (the server shares one across
// all tenants); it may also be nil everywhere, which disables tier 2.
type Tier2Compiler struct {
	mu     sync.Mutex
	queues map[string][]*t2Job
	order  []string // round-robin tenant order
	rr     int
	depth  int
	qcap   int
	closed bool

	// wake carries one token per queued job; capacity qcap bounds
	// outstanding tokens, so an admitted enqueue never blocks on the send.
	wake chan struct{}
	done chan struct{}
	pool *par.Resident

	compiled  atomic.Int64
	rejected  atomic.Int64
	vrejected atomic.Int64
	dropped   atomic.Int64
	elided    atomic.Int64
}

// NewTier2Compiler starts workers resident compile workers over a queue of
// at most queueCap jobs (defaults: 1 worker, 64 jobs). Close must be called
// to retire the workers.
func NewTier2Compiler(workers, queueCap int) *Tier2Compiler {
	if workers <= 0 {
		workers = 1
	}
	if queueCap <= 0 {
		queueCap = 64
	}
	c := &Tier2Compiler{
		queues: make(map[string][]*t2Job),
		qcap:   queueCap,
		wake:   make(chan struct{}, queueCap),
		done:   make(chan struct{}),
	}
	c.pool = par.StartResident(workers, c.next)
	return c
}

// enqueue admits a job to tenant's queue, or drops it (returning false) if
// the queue is at capacity or the compiler is closed. Called by the mutator
// on its promotion slow path: one short lock, one buffered send, no waiting.
func (c *Tier2Compiler) enqueue(tenant string, j *t2Job) bool {
	c.mu.Lock()
	if c.closed || c.depth >= c.qcap {
		c.mu.Unlock()
		c.dropped.Add(1)
		telT2Dropped.Inc()
		return false
	}
	if _, ok := c.queues[tenant]; !ok {
		c.order = append(c.order, tenant)
	}
	c.queues[tenant] = append(c.queues[tenant], j)
	c.depth++
	telT2QueueDepth.Set(int64(c.depth))
	c.mu.Unlock()
	c.wake <- struct{}{}
	return true
}

// dequeue pops the next job, rotating across tenants so one tenant's hot
// loop cannot monopolize the compile budget.
func (c *Tier2Compiler) dequeue() *t2Job {
	c.mu.Lock()
	defer c.mu.Unlock()
	for range c.order {
		t := c.order[c.rr%len(c.order)]
		c.rr++
		q := c.queues[t]
		if len(q) == 0 {
			continue
		}
		j := q[0]
		q[0] = nil
		c.queues[t] = q[1:]
		c.depth--
		telT2QueueDepth.Set(int64(c.depth))
		return j
	}
	return nil
}

// next is the resident pool's task source: block until a job token or
// shutdown.
func (c *Tier2Compiler) next() (func(), bool) {
	select {
	case <-c.done:
		return nil, false
	case <-c.wake:
		j := c.dequeue()
		if j == nil {
			return func() {}, true
		}
		return func() { c.compile(j) }, true
	}
}

// compile lowers one job and publishes the result into the fragment with a
// single atomic store — the only write a worker ever makes to a Fragment. A
// refused compile publishes a tombstone so the mutator never re-promotes.
func (c *Tier2Compiler) compile(j *t2Job) {
	start := time.Now()
	traceStart := j.tr.Now()
	var facts *dataflow.Facts
	if j.elide || j.validate {
		facts = dataflow.ProgramFacts(j.prog) // memoized; nil only on analysis failure
	}
	var sb *vm.Superblock
	var stats vm.SBStats
	var err error
	if j.elide && facts != nil {
		sb, stats, err = vm.CompileSuperblockFacts(j.spec, j.progLen, sbFactsFor(facts))
	} else {
		sb, stats, err = vm.CompileSuperblock(j.spec, j.progLen)
	}
	if err != nil {
		j.fr.t2.Store(&t2Block{})
		c.rejected.Add(1)
		telT2Rejects.Inc()
		j.tr.Add(trace.SpanTier2Compile, j.trParent, traceStart, j.tr.Now(), int32(j.fr.Start), -1)
		return
	}
	if j.validate {
		f := facts
		if f == nil {
			f = &dataflow.Facts{Prog: j.prog}
		}
		if verr := dataflow.ValidateSuperblock(f, j.spec, sb); verr != nil {
			// The compiler produced a block the validator cannot prove
			// equivalent to the recorded trace. Publish a self-describing
			// tombstone: the fragment keeps running tier 1 forever, and the
			// mutator counts the rejection at pickup.
			j.fr.t2.Store(&t2Block{validated: true, rejected: true})
			c.rejected.Add(1)
			c.vrejected.Add(1)
			telT2Rejects.Inc()
			telT2ValidateRejects.Inc()
			j.tr.Add(trace.SpanTier2Compile, j.trParent, traceStart, j.tr.Now(), int32(j.fr.Start), -1)
			return
		}
	}
	n := len(j.spec)
	blk := &t2Block{
		sb:        sb,
		nGuest:    int32(n),
		stats:     stats,
		validated: j.validate,
		redirPfx:  make([]int32, n+1),
		elimPfx:   make([]int32, n+1),
		bounds:    j.bounds,
	}
	var rp, ep int32
	for i := 0; i < n; i++ {
		blk.redirPfx[i] = rp
		blk.elimPfx[i] = ep
		if j.spec[i].Next != j.spec[i].PC+1 {
			rp++
		}
		if j.elim[i] {
			ep++
		}
	}
	blk.redirPfx[n] = rp
	blk.elimPfx[n] = ep
	j.fr.t2.Store(blk)
	c.compiled.Add(1)
	c.elided.Add(int64(stats.BoundsElided))
	telT2Compiled.Inc()
	telT2CompileUs.Observe(time.Since(start).Microseconds())
	if j.tr != nil {
		cs := j.tr.Add(trace.SpanTier2Compile, j.trParent, traceStart, j.tr.Now(), int32(j.fr.Start), int64(n))
		j.tr.Instant(trace.SpanPromote, cs, int32(j.fr.Start), int64(n))
	}
}

// Close retires the workers. Jobs still queued are abandoned; their
// fragments simply keep running tier 1.
func (c *Tier2Compiler) Close() {
	c.mu.Lock()
	already := c.closed
	c.closed = true
	c.mu.Unlock()
	if already {
		return
	}
	close(c.done)
	c.pool.Wait()
}

// Compiled returns the number of superblocks compiled and published.
func (c *Tier2Compiler) Compiled() int64 { return c.compiled.Load() }

// BoundsElided returns the bounds checks statically elided across every
// published superblock. Unlike Result.T2BoundsElided, which credits a block
// only when a run picks it up, it is complete once the queue is drained.
func (c *Tier2Compiler) BoundsElided() int64 { return c.elided.Load() }

// Rejected returns the number of compiles refused (tombstoned fragments).
func (c *Tier2Compiler) Rejected() int64 { return c.rejected.Load() }

// ValidatorRejected returns how many of the rejections came from the
// translation validator (ValidateEmits) rather than compile refusals. Unlike
// Result.T2ValidatorRejects, which is credited when the mutator next
// dispatches the fragment, this count is final as soon as the compile queue
// drains — CI gates read it after the run.
func (c *Tier2Compiler) ValidatorRejected() int64 { return c.vrejected.Load() }

// Dropped returns the number of promotions dropped on a full queue.
func (c *Tier2Compiler) Dropped() int64 { return c.dropped.Load() }

// Depth returns the current queue depth.
func (c *Tier2Compiler) Depth() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.depth
}

// maybePromote enqueues fr for background compilation once this run has
// proved it hot: Tier2Threshold completions observed in this run, carrying
// at least 1/Tier2MinFlow of this run's path events (flow restored from a
// snapshot counts toward neither). Mutator-only; the only allocation-bearing
// path of tier 2 on the mutator (the snapshot), entered at most once per
// threshold crossing per fragment.
func (s *System) maybePromote(fr *Fragment) {
	if fr.t2Queued || fr.t2.Load() != nil {
		return
	}
	if fr.t2Next == 0 {
		fr.t2Next = fr.t2Base + s.t2Threshold
	}
	if fr.Completions < fr.t2Next {
		return
	}
	if s.t2MinFlow > 1 && (fr.Completions-fr.t2Base)*s.t2MinFlow < s.res.PathEvents {
		// Past the threshold but not dominant: the fragment carries less
		// than 1/Tier2MinFlow of the run's path flow. Lukewarm fragments
		// never repay their compile — on a single-core host the compile
		// worker time-slices against the guest, so a wasted compile is
		// stolen mutator time. Keep checking: dominance can arrive later.
		return
	}
	s.promote(fr)
}

// promote snapshots fr's completion chain and enqueues it on the compile
// queue, with no evidence check: maybePromote calls it once this run has
// proved fr hot, Restore for a persisted tier-2 decision.
func (s *System) promote(fr *Fragment) {
	if s.cache.get(fr.Start) != fr {
		return // flushed or superseded since entry; let it die
	}
	job := s.snapshotChain(fr)
	if job == nil {
		// Not worth compiling (too short, too long, or malformed): tombstone
		// so the threshold check never fires again for this fragment.
		fr.t2.Store(&t2Block{})
		return
	}
	job.tr, job.trParent = s.tr, s.trParent
	if !s.t2c.enqueue(s.cfg.Tier2Tenant, job) {
		// Queue full: back off one threshold's worth of completions.
		fr.t2Next = fr.Completions + s.t2Threshold
		return
	}
	fr.t2Queued = true
	s.res.T2Promotions++
	s.event(trace.SpanTier2Enqueue, telT2Promotions, fr.Start, fr.Completions)
	// Donate the rest of this quantum to the compile worker. The enqueue
	// above never blocks, but on GOMAXPROCS=1 the worker otherwise waits
	// for the next involuntary preemption (~10ms) — most of a short run —
	// before it can publish. Promotions are rare (evidence-gated), so the
	// yield costs one scheduler round-trip and buys immediate coverage.
	runtime.Gosched()
}

// t2UnrollCap bounds a superblock's guest length across linked fragments.
// When the completion chain revisits fragments (a loop) it allows enough
// iterations to amortize the per-entry fixed costs (entry guards,
// accounting, the cache-map hop back to the head) without making early
// exits from long blocks dominate.
const t2UnrollCap = 256

// snapshotChain copies fr and the fragments reachable through completion
// links into a compile job: the superblock spans the dominant path across
// linked fragments, which is where guard hoisting and cross-fragment
// redundancy elimination pay. A chain that closes a cycle keeps going —
// unrolling the loop into the block — so one entry covers many iterations
// and the per-entry overhead amortizes; t2UnrollCap bounds the walk.
// Returns nil if the chain is not worth a superblock.
func (s *System) snapshotChain(fr *Fragment) *t2Job {
	// Walk the chain first, so the step copies below are allocated once at
	// their exact length. Only chains this run proved hot, or restored as
	// persisted tier-2 decisions, get here; restored flow alone never does.
	var bounds []t2Bound
	n := 0
	for cur := fr; len(cur.Steps) > 0 && n+len(cur.Steps) <= t2UnrollCap; {
		n += len(cur.Steps)
		bounds = append(bounds, t2Bound{fr: cur, end: int32(n)})
		if s.cfg.DisableLinking {
			break
		}
		next := s.cache.get(cur.Steps[len(cur.Steps)-1].Next)
		if next == nil {
			break
		}
		cur = next
	}
	if n < 2 {
		return nil
	}
	spec := make([]vm.SBStep, 0, n)
	elim := make([]bool, 0, n)
	for _, b := range bounds {
		for i := range b.fr.Steps {
			st := &b.fr.Steps[i]
			spec = append(spec, vm.SBStep{In: st.In, PC: int32(st.PC), Next: int32(st.Next)})
			elim = append(elim, st.Eliminated)
		}
	}
	return &t2Job{
		fr: fr, spec: spec, elim: elim, bounds: bounds,
		prog: s.m.Prog, progLen: s.m.Prog.Len(),
		elide: s.cfg.Tier2Elide, validate: s.cfg.ValidateEmits,
	}
}

// runTier2 executes fr's published superblock. Returns ran = false when the
// block must not run this dispatch (step budget — MaxSteps, or the next
// injection step — too tight for the whole block, or entry guards fail) —
// the caller falls through to the precise tier-1 loop. The error, if any,
// is the machine fault that ended the run.
//
//netpathvet:dispatch
func (s *System) runTier2(fr *Fragment, blk *t2Block, bound int64) (bool, error) {
	m := s.m
	if bound > 0 && m.Steps+int64(blk.nGuest) > bound {
		// Not enough budget for a full block: tier 1 stops on the exact step.
		return false, nil
	}
	s.res.T2GuardChecks += int64(blk.sb.NumGuards())
	if !blk.sb.GuardsPass(m) {
		fr.t2Enters++
		s.res.T2GuardFails++
		s.t2Shortfall(fr)
		return false, nil
	}
	fr.t2Enters++
	s.res.T2Enters++
	x := m.RunSuperblock(blk.sb)
	// In-body checks attributed to the guest steps that completed on-trace
	// (the check that stopped an early exit is charged to the diverging
	// op's generic replay, not the block).
	s.res.T2GuardChecks += blk.sb.BodyChecksUpTo(x.Guest)
	if x.Completed {
		s.t2Account(blk, int64(blk.nGuest), int64(blk.nGuest))
		s.t2Boundaries(blk, len(blk.bounds), x.NextPC, true)
		return true, nil
	}

	g := int64(x.Guest)
	bi := s.t2BoundIndex(blk, g)
	if bi == 0 && g*2 < int64(blk.bounds[0].end) {
		// Unproductive entry: the run died in the first half of the HEAD
		// fragment. Divergence in a later bound is normal side-exit traffic
		// — the head already did a full fragment's work — and must not
		// count against a long chain, or chained blocks deopt themselves.
		s.t2Shortfall(fr)
	}
	if x.Err != nil {
		// Fault at guest index g: the trap step is not cycle-accounted,
		// matching the per-step engines. Bounds fully behind the fault still
		// completed their paths (bi counts exactly those).
		s.t2Account(blk, g, g)
		s.t2Boundaries(blk, bi, -1, false)
		return true, x.Err
	}
	// Divergence: the op at guest index g executed off-trace (event and step
	// already live-accounted by its per-step replay); on-trace redirects
	// cover only the prefix. Divergence at a fragment's last step is a
	// completion of that fragment, matching tier 1's boundary-first check.
	s.t2Account(blk, g+1, g)
	b := &blk.bounds[bi]
	if g == int64(b.end)-1 {
		s.t2Boundaries(blk, bi+1, x.NextPC, true)
	} else {
		s.t2Boundaries(blk, bi, -1, false)
		if s.mode == modeFragment {
			b.fr.EarlyExits++
			s.frag = b.fr
			s.fpos = 0
			s.leaveFragment(x.NextPC, false)
		}
	}
	return true, nil
}

// t2Account settles the arithmetic counters for nInstr executed guest steps,
// of which the first nTrace ran on-trace (redirects beyond nTrace were
// live-counted by the diverging op's replay).
func (s *System) t2Account(blk *t2Block, nInstr, nTrace int64) {
	if nInstr <= 0 {
		return
	}
	elim := int64(blk.elimPfx[nInstr])
	s.res.FragInstrs += nInstr
	s.res.ElimInstrs += elim
	s.res.Redirects += int64(blk.redirPfx[nTrace])
	s.res.T2Instrs += nInstr
}

// t2BoundIndex returns the index of the bound containing guest step g.
func (s *System) t2BoundIndex(blk *t2Block, g int64) int {
	for i := range blk.bounds {
		if g < int64(blk.bounds[i].end) {
			return i
		}
	}
	return len(blk.bounds) - 1
}

// t2Boundaries credits the first n fully-completed chained fragments —
// completion, path event, linked transfer between consecutive bounds — and,
// when exit is true, performs the block's final completed-path exit to
// exitPC. The heuristics run per boundary exactly as tier 1 runs them per
// fragment completion; a bail-out mid-walk stops further credit, like tier
// 1 going native mid-chain.
func (s *System) t2Boundaries(blk *t2Block, n int, exitPC int, exit bool) {
	for i := 0; i < n; i++ {
		if s.mode != modeFragment {
			return
		}
		b := &blk.bounds[i]
		if i > 0 {
			s.res.LinkedJumps++
			b.fr.Enters++
		}
		b.fr.Completions++
		s.res.PathEvents++
		s.res.CacheEvents++
		s.onPathEvent()
		s.maybePromote(b.fr)
	}
	if exit && s.mode == modeFragment {
		last := &blk.bounds[n-1]
		s.frag = last.fr
		s.fpos = 0
		s.leaveFragment(exitPC, true)
	}
}

// t2Shortfall records an unproductive tier-2 entry (entry guards failed, or
// the block diverged in its first half). A fragment whose published block
// keeps failing is deoptimized: the block is torn down and the promotion
// threshold backs off exponentially, so a phase change flips the fragment
// back to tier 1 quickly instead of burning guard checks forever.
func (s *System) t2Shortfall(fr *Fragment) {
	fr.t2Short++
	if fr.t2Enters >= 16 && fr.t2Short*2 > fr.t2Enters {
		s.t2Deopt(fr)
	}
}

// t2Deopt tears down fr's published superblock and re-arms promotion with
// exponential backoff. Mutator-only: the worker never writes t2 after
// publication, so a plain atomic store cannot race with it.
func (s *System) t2Deopt(fr *Fragment) {
	fr.t2.Store(nil)
	fr.t2Queued = false
	fr.t2Credited = false
	fr.t2Deopts++
	fr.t2Enters = 0
	fr.t2Short = 0
	shift := fr.t2Deopts
	if shift > 10 {
		shift = 10
	}
	fr.t2Next = fr.Completions + s.t2Threshold<<shift
	s.res.T2Deopts++
	s.event(trace.SpanTier2Deopt, telT2Deopts, fr.Start, int64(fr.t2Deopts))
}
