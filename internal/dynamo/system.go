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
	// Costs is the cycle model; zero value means DefaultCosts.
	Costs CostModel

	// MaxFragments is the fragment-cache capacity; filling it triggers a
	// full cache flush (Dynamo flushes rather than evicts).
	MaxFragments int
	// MaxTraceBranches caps recorded trace length in control transfers.
	MaxTraceBranches int

	// FlushWindow is the phase-detection window in path completions; a
	// window whose fragment-creation count exceeds FlushSpike times the
	// average of the preceding windows triggers a preemptive flush.
	FlushWindow int
	FlushSpike  float64

	// BailoutAfter is the period, in path completions, of the bail-out
	// check: if less than BailoutMinCached of executed instructions ran
	// from the fragment cache, or more than BailoutFragBudget fragments
	// have been created (a program with excessively many dynamic paths and
	// no dominant reuse), Dynamo gives up and the rest of the program runs
	// native (Section 6: gcc, go et al. bail out).
	BailoutAfter      int64
	BailoutMinCached  float64
	BailoutFragBudget int

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
	// MaxPaths caps the path interner the same way (0 = default,
	// <0 = unbounded).
	MaxPaths int

	// BlacklistBackoff is the base backoff after a recording abort: the
	// head's next BlacklistBackoff·2^(aborts-1) selections are suppressed
	// before recording is retried (0 = default).
	BlacklistBackoff int64
	// BlacklistMaxAborts permanently demotes a head to interpretation after
	// that many recording aborts (0 = default, <0 = never).
	BlacklistMaxAborts int
	// DemoteAfterAborts evicts a fragment back to interpretation after that
	// many aborted executions (0 = default, <0 = never).
	DemoteAfterAborts int
	// GovernorEvictLimit trips the resource governor — a generalized
	// bail-out to native execution — when the two bounded tables evict more
	// than this many entries within one FlushWindow of path events
	// (0 = default, <0 = disabled). Eviction thrash means the working set
	// no longer fits the tables, so profiling is wasted work.
	GovernorEvictLimit int

	// Tier2 enables background superblock compilation when non-nil: hot
	// fragments are lowered off-thread on this compiler (typically shared
	// across many Systems) and swapped in by atomic publication. See
	// tier2.go. nil (the default) disables tier 2 entirely.
	Tier2 *Tier2Compiler
	// Tier2Threshold is the completion count that promotes a fragment to
	// tier 2 (0 = default 16).
	Tier2Threshold int64
	// Tier2MaxGuest caps a superblock's guest length across linked
	// fragments (0 = default 4096).
	Tier2MaxGuest int
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
	// Tier2Elide feeds statically proven dataflow facts into the superblock
	// compiler: loads and stores proven in-bounds lower to check-free
	// handlers, and branches the analysis decided compile to nothing (with
	// their entry guards pruned). No effect unless Tier2 is set.
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

// DefaultConfig returns the configuration used for Figure 5.
func DefaultConfig(scheme Scheme, tau int64) Config {
	return Config{
		Scheme:            scheme,
		Tau:               tau,
		Costs:             DefaultCosts(),
		MaxFragments:      8192,
		MaxTraceBranches:  path.DefaultMaxBranches,
		FlushWindow:       20_000,
		FlushSpike:        6.0,
		BailoutAfter:      60_000,
		BailoutMinCached:  0.80,
		BailoutFragBudget: 200,

		MaxHeadCounters:    1 << 16,
		MaxPaths:           1 << 18,
		BlacklistBackoff:   2,
		BlacklistMaxAborts: 5,
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

	// Cycle accounting.
	NativeCycles  float64 // Steps*NativeInstr + Redirects*TakenPenalty
	Cycles        float64 // total simulated Dynamo cycles
	InterpCycles  float64
	FragCycles    float64
	ProfileCycles float64 // counters, bit shifts, path table
	BuildCycles   float64 // trace recording + optimization
	TransCycles   float64 // fragment enter/exit/link + flushes

	// Volume counters.
	InterpInstrs int64
	NativeInstrs int64 // instructions run native after bail-out
	FragInstrs   int64
	ElimInstrs   int64 // fragment instructions optimized away
	PathEvents   int64
	CacheEvents  int64 // path events completed inside the fragment cache

	Fragments   int // fragments created (across flushes)
	Flushes     int
	FragEnters  int64
	LinkedJumps int64
	FragExits   int64

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

	// Static guard-elision counters (all zero unless Config.Tier2Elide).
	T2BoundsElided  int64 // bounds checks dropped by static proof, per published block
	T2GuardsImplied int64 // entry guards pruned as statically implied, per published block
	// T2GuardChecks counts runtime checks actually executed inside tier 2:
	// entry-guard evaluations plus in-body successor/bounds checks. The
	// guards-executed-per-step metric is T2GuardChecks / T2Instrs; elision
	// lowers it at identical architectural behavior.
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
	PathEvictions    int64  // path-interner slot recyclings
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

	// Interpreter-side state.
	tracker  *path.Tracker
	interner *path.Interner
	skipping bool // PP: interpreting an unprofilable suffix
	skipEnd  int  // resume address once a backward branch ends the skip

	// Path completion relay from the tracker callback.
	completed   bool
	completedID path.ID

	// Trace recording (NET).
	recording bool
	recStart  int
	recBuf    []dataflow.GuestStep

	// Per-path capture (PathProfile).
	capStart int
	capBuf   []dataflow.GuestStep

	// Selector state.
	heads      *headTable // NET head counters (bounded, CLOCK-evicted)
	pathCounts []int64    // PathProfile, by path ID
	armed      map[path.ID]bool

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
	cache map[int]*Fragment
	frag  *Fragment
	fpos  int
	opt   *Optimizer

	// Tier-2 (nil t2c disables; see tier2.go). Cached off cfg so the
	// dispatch-loop checks are single field loads.
	t2c         *Tier2Compiler
	t2Threshold int64
	t2MaxGuest  int
	t2MinFlow   int64

	// Flush heuristic. Only fragments at addresses never cached before
	// count toward the spike window: a genuine phase change brings new
	// code, while post-flush re-recording of known addresses must not
	// re-trigger the heuristic (flush thrash).
	windowEvents    int
	windowCreations int
	prevCreations   []int
	everCached      map[int]bool

	// nativeRedirectCycles accumulates taken-branch penalties for
	// instructions executed natively after bail-out.
	nativeRedirectCycles float64
}

// New creates a mini-Dynamo for program p.
func New(p *prog.Program, cfg Config) *System {
	if cfg.Costs == (CostModel{}) {
		cfg.Costs = DefaultCosts()
	}
	if cfg.MaxFragments <= 0 {
		cfg.MaxFragments = 8192
	}
	if cfg.MaxTraceBranches <= 0 {
		cfg.MaxTraceBranches = path.DefaultMaxBranches
	}
	if cfg.MaxHeadCounters == 0 {
		cfg.MaxHeadCounters = 1 << 16
	}
	if cfg.MaxPaths == 0 {
		cfg.MaxPaths = 1 << 18
	}
	if cfg.BlacklistBackoff <= 0 {
		cfg.BlacklistBackoff = 2
	}
	if cfg.BlacklistMaxAborts == 0 {
		cfg.BlacklistMaxAborts = 5
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
	if cfg.Tier2MaxGuest <= 0 {
		cfg.Tier2MaxGuest = 4096
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
		t2MaxGuest:  cfg.Tier2MaxGuest,
		t2MinFlow:   cfg.Tier2MinFlow,
	}
	if cfg.DisableOptimizer {
		s.opt = nil // no passes run
	}
	// The recording and capture buffers are reused across traces ([:0]
	// truncation); seed them with enough capacity for a full-length trace so
	// the steady state never grows them.
	s.recBuf = make([]dataflow.GuestStep, 0, 4*cfg.MaxTraceBranches)
	if cfg.Scheme == SchemePathProfile {
		s.capBuf = make([]dataflow.GuestStep, 0, 4*cfg.MaxTraceBranches)
	}
	s.m.SetSink(s)
	if h, ok := cfg.Chaos.(interface{ VMFault(*vm.Machine) error }); ok {
		s.m.SetFaultHook(h.VMFault)
	}
	if s.tr != nil {
		// Attach an instant fault span at delivery; the observer runs on the
		// failure path only, never per instruction.
		tr, parent := s.tr, s.trParent
		s.m.SetFaultObserver(func(kind vm.FaultKind, pc int, step int64) {
			now := tr.Now()
			tr.Add(trace.SpanFault, parent, now, now, int32(pc), int64(kind))
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
	s.heads = newHeadTable(cfg.MaxHeadCounters)
	s.pathCounts = s.pathCounts[:0]
	s.armed = make(map[path.ID]bool)
	s.cache = make(map[int]*Fragment)
	s.everCached = make(map[int]bool)
	s.interner = path.NewInterner()
	if cfg.MaxPaths > 0 {
		// A recycled path slot belongs to a new path: forget the old
		// path's count and arming so they are not inherited.
		s.interner.SetCapacity(cfg.MaxPaths, func(id path.ID) {
			if int(id) < len(s.pathCounts) {
				s.pathCounts[id] = 0
			}
			delete(s.armed, id)
		})
	}
	s.black = newBlacklist(cfg.BlacklistBackoff, cfg.BlacklistMaxAborts)
	s.skipping = false
	s.skipEnd = -1
	s.completed = false
	s.recording = false
	s.recBuf = s.recBuf[:0]
	s.capBuf = s.capBuf[:0]
	s.capAborted = false
	s.evictsAtWin = 0
	s.frag = nil
	s.fpos = 0
	s.windowEvents = 0
	s.windowCreations = 0
	s.prevCreations = s.prevCreations[:0]
	s.nativeRedirectCycles = 0
	s.telLast = telCycleMarks{}
	s.selSpan = trace.NoSpan
	s.hasDeadline = false
	s.preempt.Store(false)
	s.tracker = path.NewTracker(s.interner, s.m.PC, s.onComplete)
	s.tracker.MaxBranches = cfg.MaxTraceBranches
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

func (s *System) onComplete(c path.Completed) {
	s.completed = true
	s.completedID = c.ID
}

// OnBranch implements vm.Sink; it is the machine's event callback, not part
// of the System API.
func (s *System) OnBranch(ev vm.BranchEvent) {
	if ev.Target != ev.PC+1 {
		s.res.Redirects++
	}
	switch s.mode {
	case modeNative:
		return
	case modeInterp:
		if s.skipping {
			if ev.Backward {
				s.skipping = false
				s.skipEnd = ev.Target
			}
			return
		}
		s.tracker.OnBranch(ev)
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
// checked at every dispatcher iteration (at most one interpreted
// instruction apart) and at fragment-link boundaries (at most one fragment
// body apart), so a hostile guest cannot outrun its wall-clock budget by
// staying resident in the fragment cache. A background context makes
// RunContext exactly Run: no timer, no atomic traffic on the step path.
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
		if s.mode == modeFragment {
			// Two-tier dispatch: the fault-free path runs whole fragments
			// (and linked successors) on the compiled step arrays without
			// per-instruction injector or hook checks; chaos injection or an
			// installed fault hook selects the slow per-step stepper.
			if s.inj == nil && !s.m.HasFaultHook() {
				err = s.runFragment()
			} else {
				err = s.stepFragmentSlow()
			}
		} else {
			err = s.stepInterp()
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

// finish folds the cycle accounting into the result.
func (s *System) finish() {
	s.res.Steps = s.m.Steps
	c := s.cfg.Costs
	s.res.NativeCycles = float64(s.res.Steps)*c.NativeInstr + float64(s.res.Redirects)*c.TakenPenalty
	s.res.Cycles = s.res.InterpCycles + s.res.FragCycles + s.res.ProfileCycles +
		s.res.BuildCycles + s.res.TransCycles +
		float64(s.res.NativeInstrs)*c.NativeInstr + s.nativeRedirectCycles
	s.res.HeadEvictions = s.heads.evictions
	s.res.PathEvictions = s.interner.Evictions()
	s.res.BlacklistSkips = s.black.skips
	s.res.BlacklistedHeads = s.black.permanent()
	s.syncTelemetry()
}

func (s *System) stepInterp() error {
	c := &s.cfg.Costs
	pc := s.m.PC
	in := s.m.InstrAt(pc)

	if s.mode == modeNative {
		if err := s.m.Step(); err != nil {
			return err
		}
		s.res.NativeInstrs++
		if s.m.PC != pc+1 && !s.m.Halted {
			s.nativeRedirectCycles += c.TakenPenalty
		}
		return nil
	}

	// Interpreter dispatch cost, plus the scheme's per-branch profiling
	// work (only while profiling is active).
	s.res.InterpCycles += c.InterpInstr
	s.res.InterpInstrs++
	if s.cfg.Scheme == SchemePathProfile && !s.skipping {
		switch in.Op {
		case isa.Br, isa.BrI:
			s.res.ProfileCycles += c.BitShift
		case isa.JmpInd, isa.CallInd:
			s.res.ProfileCycles += c.IndAppend
		}
	}
	if s.recording {
		s.res.BuildCycles += c.RecordInstr
	}

	if err := s.m.Step(); err != nil {
		return err
	}
	next := s.m.PC

	if s.recording {
		s.recBuf = append(s.recBuf, dataflow.GuestStep{PC: pc, In: in, Next: next})
	}
	if s.cfg.Scheme == SchemePathProfile && !s.skipping {
		s.capBuf = append(s.capBuf, dataflow.GuestStep{PC: pc, In: in, Next: next})
	}

	// Injected faults land at their machine step and damage only what is in
	// flight then: a recording abort with no recording under way hits
	// nothing, and a fragment abort while interpreting hits nothing. Both
	// streams are polled every step so events never pile up and ambush the
	// next recording.
	if s.inj != nil {
		abort := s.inj.AbortRecording(s.m.Steps)
		s.inj.AbortFragment(s.m.Steps) // no fragment in flight; discard
		if abort {
			switch {
			case s.recording:
				s.recording = false
				s.recBuf = s.recBuf[:0]
				s.res.RecordAborts++
				s.tr.End(s.selSpan)
				s.selSpan = trace.NoSpan
				s.blacklistHead(s.recStart, chaosArgRecordAbort)
			case s.cfg.Scheme == SchemePathProfile && !s.skipping && !s.capAborted:
				s.capAborted = true
				s.capBuf = s.capBuf[:0]
				s.res.RecordAborts++
				s.blacklistHead(s.capStart, chaosArgRecordAbort)
			}
		}
	}

	if s.skipEnd >= 0 {
		// A backward branch ended an unprofilable suffix: resume profiling.
		target := s.skipEnd
		s.skipEnd = -1
		s.tracker.Restart(target)
		s.atPathStart(target)
		return nil
	}

	if s.completed {
		s.completed = false
		id := s.completedID
		s.res.PathEvents++
		if s.tel != nil && s.res.PathEvents&telSampleMask == 0 {
			s.tel.Observe(telPathLen, int64(s.interner.Info(id).Branches))
		}
		s.onPathEvent()

		if s.cfg.Scheme == SchemePathProfile {
			s.res.ProfileCycles += c.PathTableUpdate
			if s.inj != nil {
				if d, ok := s.inj.CorruptCounter(s.m.Steps); ok {
					s.corruptPathCount(id, d)
					s.res.Corruptions++
					if s.tel != nil {
						s.tel.Inc(telCorruptions)
						s.tel.Emit(telemetry.EvChaosInject, s.m.Steps, s.capStart, chaosArgCorrupt)
					}
				}
			}
			if s.pathCount(id) && s.tel != nil {
				// The path's own counter reached τ: the PathProfile analogue
				// of a head promotion.
				s.tel.Inc(telHeadPromotions)
				s.tel.Observe(telPromoteCounter, s.cfg.Tau)
				s.tel.Emit(telemetry.EvHeadPromote, s.m.Steps, s.capStart, s.cfg.Tau)
			}
			if s.armed[id] && s.cache[s.capStart] == nil && !s.capAborted && s.black.allow(s.capStart) {
				delete(s.armed, id)
				// Retroactive recording charge for the captured trace.
				s.res.BuildCycles += c.RecordInstr * float64(len(s.capBuf))
				s.emit(s.capStart, s.capBuf)
			}
		}
		if s.recording {
			s.recording = false
			s.emit(s.recStart, s.recBuf)
		}
		if !s.m.Halted {
			s.atPathStart(s.m.PC)
		}
	}
	return nil
}

// pathCount counts one execution of path id and reports whether this count
// armed it (reached τ exactly).
func (s *System) pathCount(id path.ID) bool {
	for int(id) >= len(s.pathCounts) {
		s.pathCounts = append(s.pathCounts, 0)
	}
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
	for int(id) >= len(s.pathCounts) {
		s.pathCounts = append(s.pathCounts, 0)
	}
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

// atPathStart handles the boundary where a new path begins at addr while in
// the interpreter: enter the cache if a fragment exists, otherwise run the
// scheme's head logic. (Fragment-side transitions go through leaveFragment.)
func (s *System) atPathStart(addr int) {
	c := &s.cfg.Costs
	if fr := s.cache[addr]; fr != nil {
		s.res.TransCycles += c.FragEnter
		s.res.FragEnters++
		fr.Enters++
		s.mode = modeFragment
		s.frag = fr
		s.fpos = 0
		if s.tel != nil && s.res.FragEnters&telSampleMask == 0 {
			s.tel.Emit(telemetry.EvFragEnter, s.m.Steps, addr, 0)
		}
		return
	}
	// Interpreting from addr: reset the scheme's per-path state.
	switch s.cfg.Scheme {
	case SchemeNET:
		s.res.ProfileCycles += c.HeadCounter
		if s.inj != nil {
			if d, ok := s.inj.CorruptCounter(s.m.Steps); ok {
				s.heads.add(addr, d)
				s.res.Corruptions++
				if s.tel != nil {
					s.tel.Inc(telCorruptions)
					s.tel.Emit(telemetry.EvChaosInject, s.m.Steps, addr, chaosArgCorrupt)
				}
			}
		}
		n := s.heads.add(addr, 1)
		force := s.inj != nil && s.inj.SpikeSelect(s.m.Steps)
		if (n >= s.cfg.Tau || force) && !s.recording {
			s.heads.zero(addr)
			if s.black.allow(addr) {
				s.recording = true
				s.recStart = addr
				s.recBuf = s.recBuf[:0]
				s.selSpan = s.tr.Begin(trace.SpanTraceSelect, s.trParent, int32(addr), n)
				if force && n < s.cfg.Tau {
					s.res.ForcedSelections++
					if s.tel != nil {
						s.tel.Inc(telForcedSelects)
						s.tel.Emit(telemetry.EvChaosInject, s.m.Steps, addr, chaosArgSpike)
					}
				}
				if s.tel != nil {
					s.tel.Inc(telHeadPromotions)
					s.tel.Observe(telPromoteCounter, n)
					s.tel.Emit(telemetry.EvHeadPromote, s.m.Steps, addr, n)
				}
			}
		}
	case SchemePathProfile:
		s.capStart = addr
		s.capBuf = s.capBuf[:0]
		s.capAborted = false
	}
}

// emit optimizes a recorded trace and installs it in the cache.
func (s *System) emit(start int, steps []dataflow.GuestStep) {
	// Selection ends here whether or not anything installs; close the open
	// trace-select span (a no-op for sampled-out runs and armed PP captures,
	// which never opened one).
	s.tr.End(s.selSpan)
	s.selSpan = trace.NoSpan
	if len(steps) == 0 || s.mode == modeNative {
		return
	}
	c := &s.cfg.Costs
	s.res.BuildCycles += c.OptimizeInstr * float64(len(steps))
	cp := make([]dataflow.GuestStep, len(steps))
	copy(cp, steps)
	fr := s.opt.Optimize(start, cp)
	if s.cfg.ValidateEmits && !s.validateEmit(fr) {
		// The optimizer produced a fragment the validator cannot prove
		// faithful (an optimizer bug, or a trace corrupted between recording
		// and emit — a bad snapshot restore, a hand-edited profile). The
		// head keeps interpreting; re-selection will retry with a fresh
		// recording, and a persistent rejection shows up in the counters.
		return
	}
	if len(s.cache) >= s.cfg.MaxFragments {
		s.flush()
	}
	s.cache[start] = fr
	s.res.Fragments++
	if s.tel != nil {
		s.tel.Inc(telFragCreated)
		s.tel.Observe(telFragSize, int64(len(steps)))
		s.tel.Emit(telemetry.EvFragEmit, s.m.Steps, start, int64(len(steps)))
	}
	if s.tr != nil {
		now := s.tr.Now()
		s.tr.Add(trace.SpanFragEmit, s.trParent, now, now, int32(start), int64(len(steps)))
	}
	if !s.everCached[start] {
		s.everCached[start] = true
		s.windowCreations++
	}
}

func (s *System) flush() {
	resident := len(s.cache)
	s.cache = make(map[int]*Fragment)
	s.res.Flushes++
	s.res.TransCycles += s.cfg.Costs.FlushCost
	if s.tel != nil {
		s.tel.Inc(telFlushes)
		s.tel.Emit(telemetry.EvFlush, s.m.Steps, 0, int64(resident))
	}
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
				ev := s.heads.evictions + s.interner.Evictions()
				if ev-s.evictsAtWin > int64(s.cfg.GovernorEvictLimit) {
					s.bail("evict-thrash")
				}
				s.evictsAtWin = ev
			}
		}
	}
	if s.cfg.BailoutAfter > 0 && !s.res.BailedOut && s.res.PathEvents%s.cfg.BailoutAfter == 0 {
		lowReuse := s.res.CachedFraction() < s.cfg.BailoutMinCached
		tooManyPaths := s.cfg.BailoutFragBudget > 0 && s.res.Fragments > s.cfg.BailoutFragBudget
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
	s.cache = make(map[int]*Fragment)
	s.recording = false
	s.skipping = false
	s.tr.End(s.selSpan)
	s.selSpan = trace.NoSpan
	if s.tel != nil {
		s.tel.Inc(telBailouts)
		s.tel.Emit(telemetry.EvBail, s.m.Steps, 0, bailReasonCode(reason))
	}
	if s.tr != nil {
		now := s.tr.Now()
		s.tr.Add(trace.SpanBail, s.trParent, now, now, 0, bailReasonCode(reason))
	}
}

// runFragment executes fragments on their compiled step arrays until control
// leaves the fragment cache (or the machine halts, faults, or hits the step
// budget). Linked exits transfer directly into the successor fragment's
// compiled array — the loop keeps going without returning to Run's
// dispatcher, the software analogue of Dynamo's fragment linking. Only
// reached when no injector and no fault hook are installed, so the hot loop
// is: budget compare, ExecAt, successor compare.
//
//netpathvet:dispatch
func (s *System) runFragment() error {
	m := s.m
	limit := s.cfg.MaxSteps
	pc := m.PC
	for {
		fr := s.frag
		if s.t2c != nil && s.fpos == 0 {
			// A published superblock supersedes the step array when entering
			// at the head. The atomic load is the entire publication
			// protocol: the background compiler stores, dispatch loads.
			if blk := fr.t2.Load(); blk != nil {
				if !fr.t2Credited {
					fr.t2Credited = true
					s.creditT2Block(blk)
				}
				if blk.sb != nil {
					ran, err := s.runTier2(fr, blk)
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
						pc = m.PC
						continue
					}
					// Budget-gated or guard-bounced: run this entry on tier 1.
				}
			}
		}
		code := fr.code
		last := len(code) - 1
		fpos := s.fpos
		base := fpos
		for {
			if limit > 0 && m.Steps >= limit {
				// Out of budget before this step executed: sync state and
				// let Run's loop raise the step-limit error.
				s.accountFrag(fr, base, fpos)
				s.fpos = fpos
				m.PC = pc
				return nil
			}
			npc := m.ExecAt(pc)
			if npc < 0 {
				// Halt or fault. SettleExec pins m.PC and delivers the
				// fault; a halting step is accounted (it executed), a
				// faulting one is not — matching the per-step stepper,
				// which returns before accounting on error.
				err := m.SettleExec(pc, npc)
				if err == nil {
					s.accountFrag(fr, base, fpos+1)
				} else {
					s.accountFrag(fr, base, fpos)
				}
				s.fpos = fpos
				return err
			}
			if fpos == last {
				// Fragment completed: its end is a path boundary.
				s.accountFrag(fr, base, last+1)
				m.PC = npc
				fr.Completions++
				s.res.PathEvents++
				s.res.CacheEvents++
				s.onPathEvent()
				if s.t2c != nil {
					s.maybePromote(fr)
				}
				s.leaveFragment(npc, true)
				break
			}
			if npc != int(code[fpos].next) {
				s.accountFrag(fr, base, fpos+1)
				m.PC = npc
				fr.EarlyExits++
				s.leaveFragment(npc, false)
				break
			}
			fpos++
			pc = npc
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
		pc = m.PC
	}
}

// accountFrag settles cycle accounting for the straight run Steps[from:to)
// of fr in one shot: eliminated instructions were skipped at fragment
// compile time, so their count comes from the prefix sums rather than a
// per-step branch.
func (s *System) accountFrag(fr *Fragment, from, to int) {
	if to <= from {
		return
	}
	n := int64(to - from)
	elim := int64(fr.elimPrefix[to] - fr.elimPrefix[from])
	s.res.FragInstrs += n
	s.res.ElimInstrs += elim
	s.res.FragCycles += float64(n-elim) * s.cfg.Costs.FragInstr
}

// stepFragmentSlow is the chaos slow path: one fragment step per call, with
// injected-fault polling. Installed only when an injector or fault hook is
// active — the fast loop above carries none of these branches.
func (s *System) stepFragmentSlow() error {
	c := &s.cfg.Costs

	// Injected fragment fault: fall back to the interpreter at the current
	// PC (the machine state is untouched, so execution stays semantically
	// identical); a fragment that keeps faulting is demoted — evicted from
	// the cache and its head blacklisted — back to interpretation. The
	// recording stream is drained too (no recording is in flight while a
	// fragment runs) so events land at their step, not at the next recording.
	if inj := s.inj; inj != nil {
		inj.AbortRecording(s.m.Steps) // no recording in flight; discard
		if inj.AbortFragment(s.m.Steps) {
			s.res.FragAborts++
			s.frag.Aborts++
			head := s.frag.Start
			if s.tel != nil {
				s.tel.Inc(telFragAborts)
				s.tel.Emit(telemetry.EvChaosInject, s.m.Steps, head, chaosArgFragAbort)
			}
			if s.cfg.DemoteAfterAborts > 0 && s.frag.Aborts >= int64(s.cfg.DemoteAfterAborts) {
				if s.cache[head] == s.frag {
					delete(s.cache, head)
				}
				s.res.Demotions++
				s.blacklistHead(head, -1)
				if s.tel != nil {
					s.tel.Inc(telDemotions)
					s.tel.Emit(telemetry.EvFragDemote, s.m.Steps, head, s.frag.Aborts)
				}
			}
			s.res.TransCycles += c.FragExit
			s.res.FragExits++
			s.mode = modeInterp
			if s.tel != nil && s.res.FragExits&telSampleMask == 0 {
				s.tel.Emit(telemetry.EvFragExit, s.m.Steps, s.m.PC, 0)
			}
			s.tracker.Restart(s.m.PC)
			if s.cfg.Scheme != SchemePathProfile || s.fpos == 0 {
				// The abort point is a (potential) trace head: NET and the
				// static scheme treat any exit as one, and at fpos 0 it is
				// the fragment's own head.
				s.atPathStart(s.m.PC)
			} else {
				// PathProfile: a mid-path suffix is not a profilable unit.
				s.skipping = true
			}
			return nil
		}
	}

	st := &s.frag.Steps[s.fpos]
	if err := s.m.Step(); err != nil {
		return err
	}
	if !st.Eliminated {
		s.res.FragCycles += c.FragInstr
	} else {
		s.res.ElimInstrs++
	}
	s.res.FragInstrs++
	if s.m.Halted {
		return nil
	}
	actual := s.m.PC
	if s.fpos == len(s.frag.Steps)-1 {
		// Fragment completed: its end is a path boundary. Promotion still
		// runs under chaos — background compilation and publication proceed
		// while this System stays on the precise slow path, which never
		// dispatches through a published block (see RunContext).
		s.frag.Completions++
		s.res.PathEvents++
		s.res.CacheEvents++
		s.onPathEvent()
		if s.t2c != nil {
			s.maybePromote(s.frag)
		}
		s.leaveFragment(actual, true)
		return nil
	}
	if actual == st.Next {
		s.fpos++
		return nil
	}
	s.frag.EarlyExits++
	s.leaveFragment(actual, false)
	return nil
}

// leaveFragment transfers control out of the current fragment to target.
func (s *System) leaveFragment(target int, completedPath bool) {
	c := &s.cfg.Costs
	if s.mode == modeNative {
		return
	}
	if fr := s.cache[target]; fr != nil && !s.cfg.DisableLinking {
		s.res.TransCycles += c.LinkedJump
		s.res.LinkedJumps++
		fr.Enters++
		s.frag = fr
		s.fpos = 0
		if s.tel != nil && s.res.LinkedJumps&telSampleMask == 0 {
			s.tel.Emit(telemetry.EvFragLink, s.m.Steps, target, 0)
		}
		return
	}
	s.res.TransCycles += c.FragExit
	s.res.FragExits++
	s.mode = modeInterp
	if s.tel != nil && s.res.FragExits&telSampleMask == 0 {
		s.tel.Emit(telemetry.EvFragExit, s.m.Steps, target, 0)
	}
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

// nativeRedirectCycles is accumulated separately so Run can fold it in once.
