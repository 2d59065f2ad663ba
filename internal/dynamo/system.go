package dynamo

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"netpath/internal/dataflow"
	"netpath/internal/isa"
	"netpath/internal/path"
	"netpath/internal/prog"
	"netpath/internal/telemetry"
	"netpath/internal/trace"
	"netpath/internal/vm"
)

// Scheme selects the hot path prediction scheme driving trace selection.
type Scheme int

// Prediction schemes.
const (
	// SchemeNET: counters at path heads only; when a head gets hot the next
	// executing tail is recorded. Fragment exits count as heads too
	// (Dynamo's exit-stub counters), forming secondary traces.
	SchemeNET Scheme = iota
	// SchemePathProfile: full bit-tracing path profiling in the
	// interpreter; a path is emitted once its own counter reaches τ.
	// Divergent fragment exits resume profiling only at the next genuine
	// path head (mid-path suffixes are not profilable units).
	SchemePathProfile
	// SchemeStatic: no runtime profiling at all. The fragment cache is
	// pre-populated at load time from the static predictor's
	// maximum-likelihood walks (internal/staticpred); τ is fixed at zero
	// and the interpreter carries no counters, bit shifts, or recording.
	// Mispredicted fragments simply exit early; the flush and bail-out
	// heuristics still apply.
	SchemeStatic
)

// String names the scheme as in Figure 5.
func (s Scheme) String() string {
	switch s {
	case SchemeNET:
		return "NET"
	case SchemeStatic:
		return "Static"
	}
	return "PathProfile"
}

// Config parameterizes a mini-Dynamo run.
type Config struct {
	Scheme Scheme
	// Tau is the prediction delay (10/50/100 in Figure 5).
	Tau int64

	// MaxFragments is the fragment-cache capacity; filling it triggers a
	// full cache flush (Dynamo flushes rather than evicts).
	MaxFragments int

	// FlushWindow is the phase-detection window in path completions; a
	// window whose fragment-creation count exceeds FlushSpike times the
	// average of the preceding windows triggers a preemptive flush.
	FlushWindow int
	FlushSpike  float64

	// BailoutAfter is the period, in path completions, of the bail-out
	// check: if less than bailoutMinCached of executed instructions ran
	// from the fragment cache, or more than bailoutFragBudget fragments
	// have been created (a program with excessively many dynamic paths and
	// no dominant reuse), Dynamo gives up and the rest of the program runs
	// native (Section 6: gcc, go et al. bail out).
	BailoutAfter int64

	// MaxSteps bounds the run (0 = unlimited); exceeding it ends the run
	// with an error wrapping vm.ErrStepLimit.
	MaxSteps int64

	// DisableOptimizer turns off trace optimization (ablation).
	DisableOptimizer bool
	// DisableLinking makes every fragment transition go through the
	// interpreter exit path (ablation).
	DisableLinking bool

	// Chaos is an optional fault injector (see internal/chaos). Soft faults
	// (recording/fragment aborts, counter corruption, selection spikes)
	// never change what the program computes — only how Dynamo executes it.
	Chaos Injector

	// Telemetry is an optional observability sink (see internal/telemetry).
	// All instruments live in the process-wide registry under stable names;
	// the sink only decides whether this System writes into them (and which
	// counter shard it writes through). nil disables every emission site at
	// the cost of one predictable branch.
	Telemetry *telemetry.Sink

	// MaxHeadCounters caps the NET head-counter table; the least recently
	// hit head is CLOCK-evicted when it fills (0 = default, <0 = unbounded).
	MaxHeadCounters int
	// MaxPaths caps PathProfile's path interner the same way (0 = default,
	// <0 = unbounded); NET and Static intern no paths.
	MaxPaths int

	// DemoteAfterAborts evicts a fragment back to interpretation after that
	// many aborted executions (0 = default, <0 = never).
	DemoteAfterAborts int
	// GovernorEvictLimit trips the resource governor — a generalized
	// bail-out to native execution — when the bounded tables evict more
	// than this many entries within one FlushWindow of path events
	// (0 = default, <0 = disabled). Eviction thrash means the working set
	// no longer fits the tables, so profiling is wasted work. NET and
	// Static have no path table, so only head evictions count for them.
	GovernorEvictLimit int

	// Tier2 enables background superblock compilation when non-nil: hot
	// fragments are lowered off-thread on this compiler (typically shared
	// across many Systems) and swapped in by atomic publication. See
	// tier2.go. nil (the default) disables tier 2 entirely.
	Tier2 *Tier2Compiler
	// Tier2Threshold is the completion count that promotes a fragment to
	// tier 2 (0 = default 16).
	Tier2Threshold int64
	// Tier2MinFlow gates promotion on path-flow dominance: a fragment is
	// compiled only once it carries at least 1/Tier2MinFlow of the run's
	// path events. Lukewarm fragments are never worth a compile — on a
	// single-core host the background compiler time-slices against the
	// guest, so every wasted compile is stolen mutator time (the paper's
	// thesis applied to tiering: optimize less, gain more). 0 = default
	// 64; 1 disables the gate (any fragment past Tier2Threshold compiles).
	Tier2MinFlow int64
	// Tier2Tenant keys this System's jobs in the compiler's tenant-fair
	// queue ("" is a valid shared key).
	Tier2Tenant string

	// Trace, when non-nil, is the request-scoped span arena this run writes
	// pipeline phase spans into: trace selection, fragment emission, tier-2
	// enqueue/compile/promotion, deopts, guest faults, and bail-outs. nil —
	// the sampled-out state — disables every site at the cost of one nil
	// check and zero allocations (gated at the repo root). TraceParent is
	// the span ID the engine's spans nest under (trace.NoSpan = roots).
	Trace       *trace.Trace
	TraceParent int32

	// ValidateEmits runs the translation validator (internal/dataflow) over
	// every tier-1 fragment at emit time and every tier-2 superblock at
	// compile time. A rejected translation is not installed — execution
	// stays on the next tier down — and the rejection is counted in the
	// Result and telemetry. On in tests and CI; off by default in
	// production, where the counters alone are the tripwire.
	ValidateEmits bool
	// Deprecated: ignored; static elision was removed.
	Tier2Elide bool

	// Probe, when non-nil and ProbeEvery > 0, is called synchronously every
	// ProbeEvery path events with the live System. It runs inline with the
	// guest (including inside fragment dispatch, at fragment boundaries), so
	// probes must be cheap and must not re-enter Run. Used by the
	// time-to-peak experiment to sample coverage curves and by the CLIs for
	// periodic snapshot saves. nil costs one predictable branch per path
	// event.
	Probe      func(*System)
	ProbeEvery int
}

// Policy constants no caller varies: the bail-out check's thresholds (see
// Config.BailoutAfter) and the recording blacklist's base backoff and abort
// limit (see blacklist).
const (
	bailoutMinCached   = 0.80
	bailoutFragBudget  = 200
	blacklistBackoff   = 2
	blacklistMaxAborts = 5
)

// DefaultConfig returns the configuration used for Figure 5.
func DefaultConfig(scheme Scheme, tau int64) Config {
	return Config{
		Scheme:       scheme,
		Tau:          tau,
		MaxFragments: 8192,
		FlushWindow:  20_000,
		FlushSpike:   6.0,
		BailoutAfter: 60_000,

		MaxHeadCounters:    1 << 16,
		MaxPaths:           1 << 18,
		DemoteAfterAborts:  3,
		GovernorEvictLimit: 4096,
	}
}

// Result reports one mini-Dynamo run.
type Result struct {
	Program string
	Scheme  Scheme
	Tau     int64

	// Steps and Redirects describe the program run itself (identical under
	// any execution mode); they define the native baseline.
	Steps     int64
	Redirects int64 // control transfers that did not fall through

	// Cycle accounting: a price on the event counts below, set once by
	// CostModel.Price when the run ends (DefaultCosts). No decision reads
	// these fields.
	NativeCycles  float64 // Steps*NativeInstr + Redirects*TakenPenalty
	Cycles        float64 // total simulated Dynamo cycles
	InterpCycles  float64
	FragCycles    float64
	ProfileCycles float64 // counters, bit shifts, path table
	BuildCycles   float64 // trace recording + optimization
	TransCycles   float64 // fragment enter/exit/link + flushes

	// Volume counters.
	InterpInstrs    int64
	NativeInstrs    int64 // instructions run native after bail-out
	NativeRedirects int64 // taken transfers among NativeInstrs
	FragInstrs      int64
	ElimInstrs      int64 // fragment instructions optimized away
	PathEvents      int64
	CacheEvents     int64 // path events completed inside the fragment cache

	Fragments   int // fragments created (across flushes)
	Flushes     int
	FragEnters  int64
	LinkedJumps int64
	FragExits   int64

	// Profiling and trace-building counts, each named after the CostModel
	// term that prices it.
	HeadCounterHits  int64 // NET head-counter observations at interpreted path starts
	BitShifts        int64 // PathProfile conditional-branch history shifts
	IndAppends       int64 // PathProfile indirect-branch signature appends
	PathTableUpdates int64 // PathProfile path-table updates, one per interpreted path
	RecordedInstrs   int64 // instructions recorded into traces (NET live, PathProfile at emit)
	OptimizedInstrs  int64 // trace instructions handed to the optimizer

	BailedOut bool
	BailStep  int64
	// BailReason names the heuristic that gave up ("" if none):
	// "low-reuse", "path-budget", or "evict-thrash" (resource governor).
	BailReason string

	// Tier-2 counters (all zero unless Config.Tier2 is set).
	T2Promotions int64 // fragments enqueued for background compilation
	T2Enters     int64 // superblock executions started (guards passed)
	T2Instrs     int64 // guest instructions executed inside superblocks
	T2GuardFails int64 // dispatches bounced by the hoisted entry guards
	T2Deopts     int64 // published superblocks torn down (shortfall storms)

	// Translation-validation counters (all zero unless Config.ValidateEmits).
	ValidatorChecked   int64 // tier-1 fragments validated at emit
	ValidatorRejects   int64 // tier-1 emits refused installation
	T2ValidatorChecked int64 // superblocks validated after compile (counted at pickup)
	T2ValidatorRejects int64 // superblocks refused publication (tombstoned)

	T2GuardsImplied int64 // entry guards pruned as implied by earlier ones, per published block
	// T2GuardChecks counts runtime checks actually executed inside tier 2:
	// entry-guard evaluations plus in-body successor/bounds checks. The
	// guards-executed-per-step metric is T2GuardChecks / T2Instrs.
	T2GuardChecks int64

	// Warm-start counters (all zero unless Restore ran; see snapshot.go).
	RestoredHeads     int // head counters pre-seeded from a snapshot
	RestoredFragments int // fragments pre-installed from persisted traces
	RestoredPaths     int // path-profile counters pre-seeded
	RestoredT2        int // persisted tier-2 decisions re-enqueued at restore
	RestoredBlacklist int // blacklist entries imported

	// Robustness counters (all zero without fault injection).
	RecordAborts     int64  // trace recordings / path captures aborted
	FragAborts       int64  // fragment executions aborted
	Demotions        int    // fragments demoted back to interpretation
	BlacklistSkips   int64  // selections suppressed by head backoff
	BlacklistedHeads int    // heads permanently demoted to interpretation
	HeadEvictions    int64  // head-counter CLOCK evictions
	PathEvictions    int64  // path-interner slot recyclings (0 under NET and Static, which intern no paths)
	Corruptions      int64  // injected counter corruptions absorbed
	ForcedSelections int64  // injected spike selections honored
	VMFault          string // machine fault that ended the run ("" = clean)
}

// Speedup returns the speedup over native execution as a fraction
// (0.15 = 15% faster; negative = slowdown), the y-axis of Figure 5.
func (r Result) Speedup() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return r.NativeCycles/r.Cycles - 1
}

// CachedFraction returns the fraction of instructions executed from the
// fragment cache.
func (r Result) CachedFraction() float64 {
	total := r.InterpInstrs + r.FragInstrs + r.NativeInstrs
	if total == 0 {
		return 0
	}
	return float64(r.FragInstrs) / float64(total)
}

// String renders a one-line summary.
func (r Result) String() string {
	status := ""
	if r.BailedOut {
		status = " [bail-out]"
	}
	return fmt.Sprintf("%s %s τ=%d: speedup %+.1f%% (cached %.1f%%, %d fragments, %d flushes)%s",
		r.Program, r.Scheme, r.Tau, 100*r.Speedup(), 100*r.CachedFraction(), r.Fragments, r.Flushes, status)
}

type mode int

const (
	modeInterp mode = iota
	modeFragment
	modeNative // after bail-out
)

// System is one mini-Dynamo instance bound to a program.
type System struct {
	cfg Config
	m   *vm.Machine
	res Result

	mode mode

	// Interpreter-side state. Only PathProfile has an interner; NET and
	// Static track path boundaries without building signatures.
	tracker  *path.Tracker
	interner *path.Interner
	skipping bool // PP: interpreting an unprofilable suffix
	skipEnd  int  // resume address once a backward branch ends the skip

	// Path completion relay from the tracker callback.
	completed bool
	done      path.Completed

	// Trace recording (NET) and per-path capture (PathProfile) both keep
	// the branch events of the path in flight in evs; emit expands them
	// into guest steps. A path ends within path.DefaultMaxBranches events,
	// so the buffer allocated in New never grows.
	recording bool
	recStart  int
	capStart  int
	evs       []branchRec

	// Selector state.
	heads      *headTable // NET head counters (bounded, CLOCK-evicted)
	pathCounts []int64    // PathProfile, by path ID
	pathPrior  []int64    // PathProfile, restored part of pathCounts (Restore only)
	armed      []bool     // PathProfile, by path ID: counted to τ, not yet emitted

	// Degradation state.
	inj         Injector // cfg.Chaos (nil = no injection)
	black       *blacklist
	capAborted  bool  // PP: the capture in flight was aborted by a fault
	evictsAtWin int64 // table evictions seen at the last governor window

	// Telemetry (nil = disabled; see telemetry.go).
	tel     *telemetry.Sink
	telLast telCycleMarks

	// Request-scoped tracing (nil = sampled out; see internal/trace).
	// selSpan is the open trace-select span while a recording or armed
	// capture is in flight, trace.NoSpan otherwise.
	tr       *trace.Trace
	trParent int32
	selSpan  int32

	// verifyErr is the static verifier's load-time verdict (verify.go);
	// a non-nil value makes Run refuse the program.
	verifyErr error

	// Cooperative preemption (RunContext). hasDeadline is set only while a
	// cancellable context drives the run, so Run() pays one dead branch per
	// dispatcher iteration and nothing per instruction; preempt is armed
	// asynchronously by context.AfterFunc and polled at dispatch boundaries
	// and fragment links.
	hasDeadline bool
	preempt     atomic.Bool

	// Cache.
	cache fragCache
	frag  *Fragment
	fpos  int
	opt   *Optimizer

	// Tier-2 (nil t2c disables; see tier2.go). Cached off cfg so the
	// dispatch-loop checks are single field loads.
	t2c         *Tier2Compiler
	t2Threshold int64
	t2MinFlow   int64

	// Flush heuristic. Only fragments at addresses never cached before
	// count toward the spike window: a genuine phase change brings new
	// code, while post-flush re-recording of known addresses must not
	// re-trigger the heuristic (flush thrash).
	windowEvents    int
	windowCreations int
	prevCreations   []int
	everCached      []bool // by guest address, like cache
}

// branchRec is one captured branch event: the control instruction's
// address and the address execution continued at.
type branchRec struct {
	pc, target int32
}

// New creates a mini-Dynamo for program p.
func New(p *prog.Program, cfg Config) *System {
	if cfg.MaxFragments <= 0 {
		cfg.MaxFragments = 8192
	}
	if cfg.MaxHeadCounters == 0 {
		cfg.MaxHeadCounters = 1 << 16
	}
	if cfg.MaxPaths == 0 {
		cfg.MaxPaths = 1 << 18
	}
	if cfg.DemoteAfterAborts == 0 {
		cfg.DemoteAfterAborts = 3
	}
	if cfg.GovernorEvictLimit == 0 {
		cfg.GovernorEvictLimit = 4096
	}
	if cfg.Tier2Threshold <= 0 {
		cfg.Tier2Threshold = 16
	}
	if cfg.Tier2MinFlow <= 0 {
		cfg.Tier2MinFlow = 64
	}
	s := &System{
		cfg:         cfg,
		m:           vm.New(p),
		opt:         NewOptimizer(),
		inj:         cfg.Chaos,
		tel:         cfg.Telemetry,
		tr:          cfg.Trace,
		trParent:    cfg.TraceParent,
		t2c:         cfg.Tier2,
		t2Threshold: cfg.Tier2Threshold,
		t2MinFlow:   cfg.Tier2MinFlow,
	}
	if cfg.DisableOptimizer {
		s.opt = nil // no passes run
	}
	if cfg.Scheme != SchemeStatic {
		// The event buffer is reused across paths ([:0] truncation) and
		// holds a whole path, so the steady state never grows it.
		s.evs = make([]branchRec, 0, path.DefaultMaxBranches)
	}
	n := p.Len()
	s.cache = newFragCache(n)
	s.everCached = make([]bool, n+1)
	s.heads = newHeadTable(cfg.MaxHeadCounters)
	s.m.SetSink(s)
	if s.tr != nil {
		// Attach an instant fault span at delivery; the observer runs on the
		// failure path only, never per instruction.
		tr, parent := s.tr, s.trParent
		s.m.SetFaultObserver(func(kind vm.FaultKind, pc int) {
			tr.Instant(trace.SpanFault, parent, int32(pc), int64(kind))
		})
	}
	// Load-time gate: the static verifier (internal/cfg) must accept the
	// program before Dynamo will execute it. The verdict is memoized per
	// program, so the many Systems of an experiment grid verify each
	// program once.
	s.verifyErr = Verify(p)
	s.resetRunState()
	return s
}

// resetRunState (re)initializes every piece of per-run state; New and Reset
// share it so the two paths cannot drift. The machine itself, the verifier
// verdict, and the reusable trace buffers are owned by the caller.
func (s *System) resetRunState() {
	cfg := &s.cfg
	s.res = Result{Program: s.m.Prog.Name, Scheme: cfg.Scheme, Tau: cfg.Tau}
	s.mode = modeInterp
	s.heads.reset()
	s.pathCounts = s.pathCounts[:0]
	s.pathPrior = s.pathPrior[:0]
	s.armed = s.armed[:0]
	s.cache.clear()
	clear(s.everCached)
	if cfg.Scheme == SchemePathProfile {
		s.interner = path.NewInterner()
		if cfg.MaxPaths > 0 {
			// A recycled path slot belongs to a new path: forget the old
			// path's count and arming so they are not inherited.
			s.interner.SetCapacity(cfg.MaxPaths, func(id path.ID) {
				if int(id) < len(s.pathCounts) {
					s.pathCounts[id] = 0
					s.armed[id] = false
				}
				if int(id) < len(s.pathPrior) {
					s.pathPrior[id] = 0
				}
			})
		}
	}
	s.black = newBlacklist(blacklistBackoff, blacklistMaxAborts)
	s.skipping = false
	s.skipEnd = -1
	s.completed = false
	s.recording = false
	s.evs = s.evs[:0]
	s.capAborted = false
	s.evictsAtWin = 0
	s.frag = nil
	s.fpos = 0
	s.windowEvents = 0
	s.windowCreations = 0
	s.prevCreations = s.prevCreations[:0]
	s.telLast = telCycleMarks{}
	s.selSpan = trace.NoSpan
	s.hasDeadline = false
	s.preempt.Store(false)
	s.tracker = path.NewTracker(s.interner, s.m.PC, s.onComplete)
	if s.verifyErr != nil {
		if s.tel != nil {
			s.tel.Inc(telVerifyRejects)
		}
		return
	}
	if cfg.Scheme == SchemeStatic {
		s.prebuildStatic(s.m.Prog)
	}
}

// Reset returns the System to its just-constructed state so it can run the
// same program again: machine registers/memory/PC restored, all profiling
// tables, caches, heuristics, and result counters cleared, and — when the
// configured chaos injector is resettable — the fault schedule rewound, so
// a reset run replays byte-identically to a fresh New. The predecoded
// micro-op image and the memoized verifier verdict are retained, which is
// the point: a resident server reuses Systems without re-paying load-time
// translation.
func (s *System) Reset() {
	s.m.Reset()
	if r, ok := s.inj.(interface{ Reset() }); ok {
		r.Reset()
	}
	s.resetRunState()
}

// Machine exposes the underlying machine (read-only use).
func (s *System) Machine() *vm.Machine { return s.m }

// onComplete relays a path completion from the tracker. The path boundary
// is where the interpreter has work to do, so the batched loop yields.
func (s *System) onComplete(c path.Completed) {
	s.completed = true
	s.done = c
	s.m.Yield()
}

// OnBranch implements vm.Sink; it is the machine's event callback, not part
// of the System API. While interpreting it is the whole of the scheme's
// per-branch work: the event is captured for a trace that may be emitted,
// PathProfile counts its bit shift or indirect append, and the tracker
// extends the path.
func (s *System) OnBranch(ev vm.BranchEvent) {
	if ev.Target != ev.PC+1 {
		s.res.Redirects++
	}
	if s.mode != modeInterp {
		return
	}
	if s.skipping {
		if ev.Backward {
			s.skipping = false
			s.skipEnd = ev.Target
			s.m.Yield()
		}
		return
	}
	if s.recording || s.cfg.Scheme == SchemePathProfile {
		s.evs = append(s.evs, branchRec{int32(ev.PC), int32(ev.Target)})
		if s.cfg.Scheme == SchemePathProfile {
			s.countProfileOp(ev.Kind)
		}
	}
	s.tracker.OnBranch(ev)
}

// countProfileOp counts PathProfile's per-branch profiling work for a
// transfer of kind k: a history bit shift for a conditional branch, a
// signature append for an indirect one.
func (s *System) countProfileOp(k isa.BranchKind) {
	switch k {
	case isa.KindCond:
		s.res.BitShifts++
	case isa.KindIndirect, isa.KindCallInd:
		s.res.IndAppends++
	}
}

// DeadlineError reports a run stopped by its context: the wall-clock
// deadline expired (or the caller canceled) before the guest halted. The
// Result accompanying it is fully accounted up to the preemption point.
// Unwrap exposes the context's error, so errors.Is matches
// context.DeadlineExceeded and context.Canceled.
type DeadlineError struct {
	Steps int64 // machine steps executed when the run was stopped
	Cause error // the context's error
}

// Error implements error.
func (e *DeadlineError) Error() string {
	return fmt.Sprintf("dynamo: deadline exceeded after %d steps: %v", e.Steps, e.Cause)
}

// Unwrap exposes the context error for errors.Is.
func (e *DeadlineError) Unwrap() error { return e.Cause }

// Run executes the program under Dynamo and returns the result. A machine
// fault (including injected traps) or the step limit ends the run with a
// non-nil error, but the Result is fully accounted either way and the
// machine state is exactly what plain interpretation of the same program
// (under the same fault schedule) would have produced: Dynamo never
// diverges semantically and never panics.
func (s *System) Run() (Result, error) { return s.RunContext(context.Background()) }

// RunContext is Run under a context: when ctx carries a deadline or is
// cancellable, the run additionally stops — with a *DeadlineError and a
// fully accounted Result — once ctx is done. Preemption is cooperative,
// checked at every dispatcher iteration and at fragment-link boundaries: at
// most one path apart while interpreting (the batched interpreter returns at
// each path boundary, and a PathProfile skip ends at the next backward
// branch, which every loop takes), at most one fragment body apart in the
// cache, so a hostile guest cannot outrun its wall-clock budget by staying
// resident in the fragment cache, and at most nativeChunk steps apart in
// native execution after bail-out. A background context makes RunContext
// exactly Run: no timer, no atomic traffic on the step path.
func (s *System) RunContext(ctx context.Context) (Result, error) {
	if s.verifyErr != nil {
		return s.res, fmt.Errorf("dynamo: refusing unverified program: %w", s.verifyErr)
	}
	if s.hasDeadline = ctx.Done() != nil; s.hasDeadline {
		s.preempt.Store(false)
		stop := context.AfterFunc(ctx, func() { s.preempt.Store(true) })
		defer stop()
	}
	s.atPathStart(s.m.PC)
	for !s.m.Halted {
		if s.cfg.MaxSteps > 0 && s.m.Steps >= s.cfg.MaxSteps {
			s.finish()
			return s.res, fmt.Errorf("dynamo: %w after %d steps", vm.ErrStepLimit, s.m.Steps)
		}
		if s.hasDeadline && s.preempt.Load() {
			s.finish()
			return s.res, &DeadlineError{Steps: s.m.Steps, Cause: context.Cause(ctx)}
		}
		var err error
		switch s.mode {
		case modeFragment:
			err = s.runFragment()
		case modeInterp:
			err = s.runInterp()
		default:
			err = s.runNative()
		}
		if err != nil {
			var f *vm.Fault
			if errors.As(err, &f) {
				s.res.VMFault = f.Msg
			}
			s.finish()
			return s.res, fmt.Errorf("dynamo: %w", err)
		}
	}
	s.finish()
	return s.res, nil
}

// finish settles the result: final counts, then their price in cycles.
func (s *System) finish() {
	s.res.Steps = s.m.Steps
	DefaultCosts().Price(&s.res)
	s.res.HeadEvictions = s.heads.evictions
	s.res.PathEvictions = s.pathEvictions()
	s.res.BlacklistSkips = s.black.skips
	s.res.BlacklistedHeads = s.black.permanent()
	s.syncTelemetry()
}

// runInterp interprets on the batched loop until the tracker completes a
// path, a PathProfile skip ends, or the machine halts, faults or reaches
// the step budget, then settles the per-instruction counts for the whole
// batch and handles the boundary.
func (s *System) runInterp() error {
	m := s.m
	steps := m.Steps
	bound := s.cfg.MaxSteps
	if s.inj != nil {
		var err error
		if bound, err = s.injectBound(true); err != nil {
			// The trapped instruction never runs: nothing to count.
			return err
		}
	}
	err := m.RunToYield(bound)
	if err == vm.ErrStepLimit {
		err = nil // the dispatcher raises it, or resumes at an injection bound
	}
	n := m.Steps - steps
	if err != nil {
		if f, ok := err.(*vm.Fault); ok && f.Kind == vm.FaultBadRegister {
			n++ // dispatched and counted, but not as a machine step
		}
		s.countInterp(n)
		s.countFaultedBranch(err)
		return err
	}
	s.countInterp(n)
	if s.inj != nil {
		s.pollAborts()
	}
	s.pathBoundary()
	return nil
}

// injectBound delivers the trap due before the step at the current PC, if
// any, and otherwise returns the budget of the next batched run: MaxSteps,
// cut at the next step at which a trap (or, with aborts, a recording or
// fragment abort) can fire, but at least one step ahead, so that a stream
// already due is polled after the next step, as a per-instruction stepper
// would poll it. Native execution polls traps only.
func (s *System) injectBound(aborts bool) (int64, error) {
	if err := s.inj.Trap(s.m.Steps, s.m.PC); err != nil {
		return 0, s.m.Inject(err)
	}
	next, abort := s.inj.Next()
	if aborts {
		next = min(next, abort)
	}
	next = max(next, s.m.Steps+1)
	if s.cfg.MaxSteps > 0 {
		next = min(next, s.cfg.MaxSteps)
	}
	return next, nil
}

// pollAborts polls the abort streams after an interpreted batch ended at
// the current step. A recording abort hits only what is in flight: the NET
// recording or the PathProfile capture. A fragment abort hits nothing, no
// fragment being in flight, but is drawn all the same so that events land
// at their step rather than ambushing the next fragment.
func (s *System) pollAborts() {
	step := s.m.Steps
	abort := s.inj.AbortRecording(step)
	s.inj.AbortFragment(step) // no fragment in flight; discard
	if !abort {
		return
	}
	switch {
	case s.recording:
		s.recording = false
		s.evs = s.evs[:0]
		s.res.RecordAborts++
		s.tr.End(s.selSpan)
		s.selSpan = trace.NoSpan
		s.blacklistHead(s.recStart, chaosArgRecordAbort)
	case s.cfg.Scheme == SchemePathProfile && !s.skipping && !s.capAborted:
		s.capAborted = true
		s.evs = s.evs[:0]
		s.res.RecordAborts++
		s.blacklistHead(s.capStart, chaosArgRecordAbort)
	}
}

// nativeChunk bounds one native batch, so a deadline preempts a program
// that has bailed out within that many steps.
const nativeChunk = 1 << 16

// runNative runs the program after bail-out on the muted-sink loop, up to
// nativeChunk steps (and the next trap step under fault injection) per
// call. The loop's redirect count stands in for the branch events the sink
// no longer sees.
func (s *System) runNative() error {
	m := s.m
	steps := m.Steps
	bound := s.cfg.MaxSteps
	if s.inj != nil {
		var err error
		if bound, err = s.injectBound(false); err != nil {
			return err
		}
	}
	if chunk := steps + nativeChunk; bound <= 0 || bound > chunk {
		bound = chunk
	}
	redirs, faultRedir, err := m.RunMuted(bound)
	if err == vm.ErrStepLimit {
		err = nil // the dispatcher raises it, or resumes at a chunk bound
	}
	s.res.Redirects += redirs
	n := m.Steps - steps
	if f, ok := err.(*vm.Fault); ok && n > 0 && f.Kind != vm.FaultBadRegister {
		n-- // the faulting step moved m.Steps but did not complete
	}
	if faultRedir {
		redirs-- // a redirect of the faulting step, not a native instruction's
	}
	s.res.NativeInstrs += n
	s.res.NativeRedirects += redirs
	return err
}

// countInterp counts n interpreted instructions, and the same n as
// recorded while a NET trace is being recorded. Recording starts and stops
// only at path boundaries, so it holds for a whole batch.
func (s *System) countInterp(n int64) {
	s.res.InterpInstrs += n
	if s.recording {
		s.res.RecordedInstrs += n
	}
}

// countFaultedBranch counts PathProfile's per-branch work for a branch
// that faulted before delivering its event (OnBranch counts the rest): a
// dispatched branch pays for profiling whether or not it completes. Only
// an out-of-range transfer faults after its event.
func (s *System) countFaultedBranch(err error) {
	if s.cfg.Scheme != SchemePathProfile || s.skipping || s.mode != modeInterp {
		return
	}
	var f *vm.Fault
	if errors.As(err, &f) && f.Kind == vm.FaultBadPC {
		return
	}
	if k, ok := isa.KindOf(s.m.Prog.Instrs[s.m.PC].Op); ok {
		s.countProfileOp(k)
	}
}

// pathBoundary handles what the last interpreted instruction ended, if
// anything: a PathProfile skip (profiling resumes at the backward branch's
// target) or a completed path (the path event, the scheme's counting and
// trace emission, and the next path's start).
func (s *System) pathBoundary() {
	if s.skipEnd >= 0 {
		// A backward branch ended an unprofilable suffix: resume profiling.
		target := s.skipEnd
		s.skipEnd = -1
		s.tracker.Restart(target)
		s.atPathStart(target)
		return
	}
	if !s.completed {
		return
	}
	s.completed = false
	id := s.done.ID
	s.res.PathEvents++
	if s.tel != nil && s.res.PathEvents&telSampleMask == 0 {
		s.tel.Observe(telPathLen, int64(s.done.Branches))
	}
	s.onPathEvent()

	if s.cfg.Scheme == SchemePathProfile {
		s.res.PathTableUpdates++
		if s.inj != nil {
			if d, ok := s.inj.CorruptCounter(s.m.Steps); ok {
				s.corruptPathCount(id, d)
				s.res.Corruptions++
				s.event(trace.SpanChaosInject, telCorruptions, s.capStart, chaosArgCorrupt)
			}
		}
		if s.pathCount(id) && s.tel != nil {
			// The path's own counter reached τ: the PathProfile analogue
			// of a head promotion.
			s.tel.Inc(telHeadPromotions)
			s.tel.Observe(telPromoteCounter, s.cfg.Tau)
		}
		if s.armed[id] && s.cache.get(s.capStart) == nil && !s.capAborted && s.black.allow(s.capStart) {
			s.armed[id] = false
			steps := s.expand(s.capStart)
			// The captured trace counts as recorded retroactively.
			s.res.RecordedInstrs += int64(len(steps))
			s.emit(s.capStart, steps)
		}
	}
	if s.recording {
		s.recording = false
		s.emit(s.recStart, s.expand(s.recStart))
	}
	if !s.m.Halted {
		s.atPathStart(s.m.PC)
	}
}

// pathCount counts one execution of path id and reports whether this count
// armed it (reached τ exactly).
func (s *System) pathCount(id path.ID) bool {
	s.growPaths(id)
	if s.pathCounts[id] < headCounterMax {
		s.pathCounts[id]++
	}
	if s.pathCounts[id] == s.cfg.Tau {
		s.armed[id] = true
		return true
	}
	return false
}

// corruptPathCount absorbs an injected corruption of path id's counter:
// the value saturates rather than wrapping, and a count pushed past τ arms
// the path (prediction noise the system must tolerate, never a crash).
func (s *System) corruptPathCount(id path.ID, delta int64) {
	s.growPaths(id)
	v := s.pathCounts[id] + delta
	if v < 0 {
		v = 0
	}
	if v > headCounterMax {
		v = headCounterMax
	}
	s.pathCounts[id] = v
	if v >= s.cfg.Tau {
		s.armed[id] = true
	}
}

// growPaths extends the per-path tables (pathCounts and armed, kept the
// same length) to cover id.
func (s *System) growPaths(id path.ID) {
	for int(id) >= len(s.pathCounts) {
		s.pathCounts = append(s.pathCounts, 0)
		s.armed = append(s.armed, false)
	}
}

// pathEvictions returns the path interner's slot recyclings; NET and Static
// intern no paths and report none.
func (s *System) pathEvictions() int64 {
	if s.interner == nil {
		return 0
	}
	return s.interner.Evictions()
}

// atPathStart handles the boundary where a new path begins at addr while in
// the interpreter: enter the cache if a fragment exists, otherwise run the
// scheme's head logic. (Fragment-side transitions go through leaveFragment.)
func (s *System) atPathStart(addr int) {
	if fr := s.cache.get(addr); fr != nil {
		s.res.FragEnters++
		fr.Enters++
		s.mode = modeFragment
		s.frag = fr
		s.fpos = 0
		return
	}
	// Interpreting from addr: reset the scheme's per-path state.
	switch s.cfg.Scheme {
	case SchemeNET:
		s.res.HeadCounterHits++
		if s.inj != nil {
			if d, ok := s.inj.CorruptCounter(s.m.Steps); ok {
				s.heads.add(addr, d)
				s.res.Corruptions++
				s.event(trace.SpanChaosInject, telCorruptions, addr, chaosArgCorrupt)
			}
		}
		n := s.heads.add(addr, 1)
		force := s.inj != nil && s.inj.SpikeSelect(s.m.Steps)
		if (n >= s.cfg.Tau || force) && !s.recording {
			s.heads.zero(addr)
			if s.black.allow(addr) {
				s.recording = true
				s.recStart = addr
				s.evs = s.evs[:0]
				s.selSpan = s.tr.Begin(trace.SpanTraceSelect, s.trParent, int32(addr), n)
				if force && n < s.cfg.Tau {
					s.res.ForcedSelections++
					s.event(trace.SpanChaosInject, telForcedSelects, addr, chaosArgSpike)
				}
				if s.tel != nil {
					s.tel.Inc(telHeadPromotions)
					s.tel.Observe(telPromoteCounter, n)
				}
			}
		}
	case SchemePathProfile:
		s.capStart = addr
		s.evs = s.evs[:0]
		s.capAborted = false
	}
}

// expand rebuilds the trace the captured branch events describe from start.
// It is exact: a straight-line instruction always falls through, and every
// control instruction delivers an event naming its successor.
func (s *System) expand(start int) []dataflow.GuestStep {
	n, pc := 0, start
	for _, e := range s.evs {
		n += int(e.pc) - pc + 1
		pc = int(e.target)
	}
	ins := s.m.Prog.Instrs
	steps := make([]dataflow.GuestStep, 0, n)
	pc = start
	for _, e := range s.evs {
		for ; pc < int(e.pc); pc++ {
			steps = append(steps, dataflow.GuestStep{PC: pc, In: ins[pc], Next: pc + 1})
		}
		steps = append(steps, dataflow.GuestStep{PC: pc, In: ins[pc], Next: int(e.target)})
		pc = int(e.target)
	}
	return steps
}

// emit optimizes a trace and installs it in the cache; the fragment takes
// ownership of steps.
func (s *System) emit(start int, steps []dataflow.GuestStep) {
	// Selection ends here whether or not anything installs; close the open
	// trace-select span (a no-op for sampled-out runs and armed PP captures,
	// which never opened one).
	s.tr.End(s.selSpan)
	s.selSpan = trace.NoSpan
	if len(steps) == 0 || s.mode == modeNative {
		return
	}
	s.res.OptimizedInstrs += int64(len(steps))
	fr := s.opt.Optimize(start, steps)
	if s.cfg.ValidateEmits && !s.validateEmit(fr) {
		// The optimizer produced a fragment the validator cannot prove
		// faithful (an optimizer bug, or a trace corrupted between recording
		// and emit — a bad snapshot restore, a hand-edited profile). The
		// head keeps interpreting; re-selection will retry with a fresh
		// recording, and a persistent rejection shows up in the counters.
		return
	}
	if s.cache.len() >= s.cfg.MaxFragments {
		s.flush()
	}
	s.cache.put(start, fr)
	s.res.Fragments++
	s.event(trace.SpanFragEmit, telFragCreated, start, int64(len(steps)))
	if s.tel != nil {
		s.tel.Observe(telFragSize, int64(len(steps)))
	}
	if !s.everCached[start] {
		s.everCached[start] = true
		s.windowCreations++
	}
}

func (s *System) flush() {
	resident := s.cache.len()
	s.cache.clear()
	s.res.Flushes++
	s.event(trace.SpanFlush, telFlushes, 0, int64(resident))
}

// onPathEvent drives the flush and bail-out heuristics (and the optional
// coverage probe).
func (s *System) onPathEvent() {
	if s.cfg.ProbeEvery > 0 && s.cfg.Probe != nil && s.res.PathEvents%int64(s.cfg.ProbeEvery) == 0 {
		s.cfg.Probe(s)
	}
	if s.cfg.FlushWindow > 0 {
		s.windowEvents++
		if s.windowEvents >= s.cfg.FlushWindow {
			s.windowEvents = 0
			if len(s.prevCreations) >= 2 {
				avg := 0.0
				for _, v := range s.prevCreations {
					avg += float64(v)
				}
				avg /= float64(len(s.prevCreations))
				// Sudden, sharp rise in the prediction rate after a stable
				// stretch: a phase change is starting; flush phase-stale
				// fragments (Section 6.1's heuristic flushing scheme).
				if s.windowCreations >= 25 && float64(s.windowCreations) > s.cfg.FlushSpike*(avg+0.5) {
					s.flush()
					s.prevCreations = s.prevCreations[:0]
				}
			}
			s.prevCreations = append(s.prevCreations, s.windowCreations)
			if len(s.prevCreations) > 4 {
				s.prevCreations = s.prevCreations[1:]
			}
			s.windowCreations = 0
			// Lazy telemetry sync: the exported cycle split and occupancy
			// gauges trail the live run by at most one flush window.
			s.syncTelemetry()

			// Resource governor: heavy CLOCK eviction in the bounded
			// head/path tables means the working set no longer fits and
			// profiling effort is being wasted on churn — a generalized
			// bail-out condition.
			if s.cfg.GovernorEvictLimit > 0 && !s.res.BailedOut {
				ev := s.heads.evictions + s.pathEvictions()
				if ev-s.evictsAtWin > int64(s.cfg.GovernorEvictLimit) {
					s.bail("evict-thrash")
				}
				s.evictsAtWin = ev
			}
		}
	}
	if s.cfg.BailoutAfter > 0 && !s.res.BailedOut && s.res.PathEvents%s.cfg.BailoutAfter == 0 {
		lowReuse := s.res.CachedFraction() < bailoutMinCached
		tooManyPaths := s.res.Fragments > bailoutFragBudget
		switch {
		case lowReuse:
			s.bail("low-reuse")
		case tooManyPaths:
			s.bail("path-budget")
		}
	}
}

// bail gives up on dynamic optimization: the rest of the program runs
// native (Section 6's bail-out, generalized to resource exhaustion).
func (s *System) bail(reason string) {
	s.res.BailedOut = true
	s.res.BailStep = s.m.Steps
	s.res.BailReason = reason
	s.mode = modeNative
	s.cache.clear()
	s.recording = false
	s.skipping = false
	s.tr.End(s.selSpan)
	s.selSpan = trace.NoSpan
	s.event(trace.SpanBail, telBailouts, 0, bailReasonCode(reason))
}

// runFragment executes fragments on their lowered traces (vm.RunTrace, sink
// muted) until control leaves the fragment cache or the machine halts,
// faults, or reaches the step budget — under fault injection, the next
// step an injection can fire at. Linked exits continue in the successor
// fragment without returning to Run's dispatcher, the software analogue of
// Dynamo's fragment linking. Redirects come from the trace's recorded
// prefix counts plus the exit step, as tier 2 settles them.
//
//netpathvet:dispatch
func (s *System) runFragment() error {
	m := s.m
	for {
		bound := s.cfg.MaxSteps
		if s.inj != nil {
			if bound > 0 && m.Steps >= bound {
				return nil // a link at the step limit: no poll before the dispatcher stops
			}
			if s.pollFragmentAbort() {
				return nil
			}
			var err error
			if bound, err = s.injectBound(true); err != nil {
				return err
			}
		}
		fr := s.frag
		if s.t2c != nil && s.fpos == 0 {
			// A published superblock supersedes the lowered trace when
			// entering at the head. The atomic load is the entire
			// publication protocol: the background compiler stores,
			// dispatch loads.
			if blk := fr.t2.Load(); blk != nil {
				if !fr.t2Credited {
					fr.t2Credited = true
					s.creditT2Block(blk)
				}
				if blk.sb != nil {
					ran, err := s.runTier2(fr, blk, bound)
					if err != nil {
						return err
					}
					if ran {
						if s.mode != modeFragment {
							return nil
						}
						if s.hasDeadline && s.preempt.Load() {
							return nil
						}
						continue
					}
					// Budget-gated or guard-bounced: run this entry on tier 1.
				}
			}
		}
		from := s.fpos
		x := m.RunTrace(fr.code, from, bound)
		s.res.Redirects += x.Redirects
		s.fpos = x.Pos
		switch {
		case x.Err != nil:
			// A faulting step is not accounted.
			s.accountFrag(fr, from, x.Pos)
			return x.Err
		case x.NextPC < 0:
			// Halted (the halting step executed) or out of budget before
			// step Pos: Run's loop ends the run, or resumes here at an
			// injection bound.
			to := x.Pos
			if m.Halted {
				to++
			}
			s.accountFrag(fr, from, to)
			return nil
		}
		s.accountFrag(fr, from, x.Pos+1)
		if x.Pos == len(fr.code)-1 {
			// Fragment completed: its end is a path boundary.
			fr.Completions++
			s.res.PathEvents++
			s.res.CacheEvents++
			s.onPathEvent()
			if s.t2c != nil {
				s.maybePromote(fr)
			}
			s.leaveFragment(x.NextPC, true)
		} else {
			fr.EarlyExits++
			s.leaveFragment(x.NextPC, false)
		}
		if s.mode != modeFragment {
			return nil
		}
		if s.hasDeadline && s.preempt.Load() {
			// Preempted at a link boundary: surface to the dispatcher, which
			// raises the deadline error. Without this check a guest spinning
			// inside linked fragments would never reach a dispatch point.
			return nil
		}
		// Linked transfer: continue in the successor fragment set by
		// leaveFragment without surfacing to the dispatcher.
	}
}

// accountFrag settles the counts for the straight run Steps[from:to) of fr
// in one shot, with the eliminated count from the lowered trace's prefix
// counts rather than a per-step branch.
func (s *System) accountFrag(fr *Fragment, from, to int) {
	if to <= from {
		return
	}
	n := int64(to - from)
	elim := int64(fr.elidedBefore(to) - fr.elidedBefore(from))
	s.res.FragInstrs += n
	s.res.ElimInstrs += elim
}

// pollFragmentAbort polls the abort streams before the fragment step at
// the current PC and reports whether an injected fragment fault aborted it.
// The aborted execution falls back to the interpreter at the current PC
// (the machine state is untouched, so execution stays semantically
// identical); a fragment that keeps faulting is demoted — evicted from the
// cache and its head blacklisted — back to interpretation. The recording
// stream is drained too (no recording is in flight while a fragment runs)
// so events land at their step, not at the next recording.
func (s *System) pollFragmentAbort() bool {
	step := s.m.Steps
	s.inj.AbortRecording(step) // no recording in flight; discard
	if !s.inj.AbortFragment(step) {
		return false
	}
	s.res.FragAborts++
	s.frag.Aborts++
	head := s.frag.Start
	s.event(trace.SpanChaosInject, telFragAborts, head, chaosArgFragAbort)
	if s.cfg.DemoteAfterAborts > 0 && s.frag.Aborts >= int64(s.cfg.DemoteAfterAborts) {
		if s.cache.get(head) == s.frag {
			s.cache.remove(head)
		}
		s.res.Demotions++
		s.blacklistHead(head, -1)
		s.event(trace.SpanFragDemote, telDemotions, head, s.frag.Aborts)
	}
	s.res.FragExits++
	s.mode = modeInterp
	s.tracker.Restart(s.m.PC)
	if s.cfg.Scheme != SchemePathProfile || s.fpos == 0 {
		// The abort point is a (potential) trace head: NET and the static
		// scheme treat any exit as one, and at fpos 0 it is the fragment's
		// own head.
		s.atPathStart(s.m.PC)
	} else {
		// PathProfile: a mid-path suffix is not a profilable unit.
		s.skipping = true
	}
	return true
}

// leaveFragment transfers control out of the current fragment to target.
func (s *System) leaveFragment(target int, completedPath bool) {
	if s.mode == modeNative {
		return
	}
	if fr := s.cache.get(target); fr != nil && !s.cfg.DisableLinking {
		s.res.LinkedJumps++
		fr.Enters++
		s.frag = fr
		s.fpos = 0
		return
	}
	s.res.FragExits++
	s.mode = modeInterp
	if completedPath {
		// The target is a genuine path head under either scheme.
		s.tracker.Restart(target)
		s.atPathStart(target)
		return
	}
	switch s.cfg.Scheme {
	case SchemeNET, SchemeStatic:
		// Exit-stub counter: the exit target becomes a potential trace
		// head (secondary trace formation). Under the static scheme there
		// is nothing to count, but the exit target may hold a prebuilt
		// fragment, which atPathStart enters.
		s.tracker.Restart(target)
		s.atPathStart(target)
	case SchemePathProfile:
		// A mid-path suffix is not a profilable unit; interpret without
		// profiling until the next backward taken branch.
		s.skipping = true
	}
}
