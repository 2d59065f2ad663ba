// Telemetry wiring for the mini-Dynamo. Every instrument lives in the
// process-wide telemetry.Def registry under a stable name; a System only
// writes into them when Config.Telemetry hands it a *telemetry.Sink, so the
// disabled path costs exactly one nil check per site and the enabled path is
// a few atomic word operations — no allocation, no locks, pinned by the
// alloc gate (gate_test.go).
package dynamo

import (
	"netpath/internal/telemetry"
	"netpath/internal/trace"
)

// Counters: lifetime totals aggregated across every System (the parallel
// experiment grid's cells write distinct shards through their own Sinks).
// The per-path-rate volume counters (path events, fragment enters/links/
// exits) are not bumped at their sites: syncTelemetry folds them in as
// deltas of the exact result counters at flush-window boundaries.
var (
	telPathEvents = telemetry.NewCounter("dynamo_path_events_total",
		"completed path executions (interpreter and fragment cache)")
	telHeadPromotions = telemetry.NewCounter("dynamo_head_promotions_total",
		"path heads whose counter reached tau (recording started or path armed)")
	telFragCreated = telemetry.NewCounter("dynamo_fragments_created_total",
		"optimized traces installed in the fragment cache")
	telFragEnters = telemetry.NewCounter("dynamo_frag_enters_total",
		"interpreter-to-fragment cache entries")
	telFragExits = telemetry.NewCounter("dynamo_frag_exits_total",
		"fragment cache exits back to the interpreter")
	telLinkedJumps = telemetry.NewCounter("dynamo_linked_jumps_total",
		"direct fragment-to-fragment transfers (linked exits)")
	telFlushes = telemetry.NewCounter("dynamo_flushes_total",
		"fragment cache flushes (capacity and phase-change)")
	telDemotions = telemetry.NewCounter("dynamo_demotions_total",
		"fragments evicted back to interpretation after repeated aborts")
	telRecordAborts = telemetry.NewCounter("dynamo_record_aborts_total",
		"trace recordings / path captures aborted by injected faults")
	telFragAborts = telemetry.NewCounter("dynamo_frag_aborts_total",
		"fragment executions aborted by injected faults")
	telCorruptions = telemetry.NewCounter("dynamo_corruptions_total",
		"injected profiling-counter corruptions absorbed")
	telForcedSelects = telemetry.NewCounter("dynamo_forced_selections_total",
		"injected spike selections honored")
	telBailouts = telemetry.NewCounter("dynamo_bailouts_total",
		"runs that gave up on dynamic optimization (any reason)")
	telVerifyRejects = telemetry.NewCounter("dynamo_static_verify_rejects_total",
		"programs refused at load time by the static CFG verifier")
	telStaticPrebuilt = telemetry.NewCounter("dynamo_static_fragments_prebuilt_total",
		"fragments pre-installed at load time from static walks (SchemeStatic)")
)

// Per-phase cycle split, in millicycles so the cost model's sub-cycle
// prices survive integer export. Synced lazily — every FlushWindow path
// events and at finish — not per instruction.
var (
	telCyclesInterp  = telemetry.NewCounter("dynamo_cycles_interp_milli", "interpreter cycles x1000")
	telCyclesFrag    = telemetry.NewCounter("dynamo_cycles_frag_milli", "fragment-cache cycles x1000")
	telCyclesProfile = telemetry.NewCounter("dynamo_cycles_profile_milli", "profiling cycles x1000")
	telCyclesBuild   = telemetry.NewCounter("dynamo_cycles_build_milli", "trace build/optimize cycles x1000")
	telCyclesTrans   = telemetry.NewCounter("dynamo_cycles_trans_milli", "fragment transition cycles x1000")
)

// Gauges: live table occupancy (last System to sync wins; under the
// parallel grid these read as a sample of one live cell, which is what a
// quick health check wants).
var (
	telHeadTableLen = telemetry.NewGauge("dynamo_head_table_len",
		"live NET head counters (CLOCK-bounded)")
	telPathTableLen = telemetry.NewGauge("dynamo_path_table_len",
		"paths PathProfile interned (CLOCK-bounded; 0 under NET and Static)")
	telCacheResident = telemetry.NewGauge("dynamo_cache_resident",
		"fragments resident in the cache")
)

// Histograms: the distributions the paper's analysis cares about.
var (
	telPathLen = telemetry.NewHistogram("dynamo_path_len_branches",
		"control-transfer events per completed interpreted path (1/64 sampled)")
	telFragSize = telemetry.NewHistogram("dynamo_fragment_size_instrs",
		"trace length at fragment emission")
	telPromoteCounter = telemetry.NewHistogram("dynamo_head_counter_at_promotion",
		"head-counter value when a trace was selected (tau, unless spiked or corrupted)")
)

// telSampleMask decimates the path-length histogram: one completed
// interpreted path in 64 is observed, keyed off the exact PathEvents
// counter, so the enabled path stays within the <= 5% overhead budget on
// runs where millions of paths complete.
const telSampleMask = 63

// Chaos-injection codes carried in a chaos-inject span's Arg.
const (
	chaosArgRecordAbort = iota
	chaosArgFragAbort
	chaosArgCorrupt
	chaosArgSpike
)

// bailReasonCode maps BailReason strings to bail span Arg codes.
func bailReasonCode(reason string) int64 {
	switch reason {
	case "low-reuse":
		return 0
	case "path-budget":
		return 1
	case "evict-thrash":
		return 2
	}
	return -1
}

// event records one engine event at its site, into whichever of the two
// sinks is on: it bumps c through the telemetry Sink, and adds an instant
// span of kind carrying site and arg to the run's trace. Counters keep exact
// totals; the span is the per-event record. With both sinks off it costs
// two nil checks.
func (s *System) event(kind trace.SpanKind, c *telemetry.Counter, site int, arg int64) {
	if s.tel != nil {
		s.tel.Inc(c)
	}
	s.tr.Instant(kind, s.trParent, int32(site), arg)
}

// blacklistHead raises head's recording backoff and records the blacklist
// event. chaosArg >= 0 additionally records the injected fault that caused
// the abort (chaosArg* codes above); pass -1 when the caller records the
// injection itself (the fragment-abort demotion path).
func (s *System) blacklistHead(head int, chaosArg int64) {
	aborts := s.black.abort(head)
	if chaosArg >= 0 {
		s.event(trace.SpanChaosInject, telRecordAborts, head, chaosArg)
	}
	// A blacklist has no counter of its own: the record abort or demotion
	// that caused it is the counted event.
	s.tr.Instant(trace.SpanBlacklist, s.trParent, int32(head), int64(aborts))
}

// syncTelemetry folds the accounting accumulated since the last sync into
// the telemetry counters and refreshes the occupancy gauges. Called at
// flush-window boundaries and at finish, so the exported values trail the
// live run by at most one window. The cycle counters price a copy of the
// result's counts, as finish prices the result itself. The per-path-rate
// volume counters (path events, fragment enters/links/exits) are synced
// here as deltas of the result counters rather than bumped atomically at
// each site: the sites run once per path completion, and a lazy delta keeps
// the enabled path free of per-path atomic traffic.
func (s *System) syncTelemetry() {
	if s.tel == nil {
		return
	}
	priced := s.res
	DefaultCosts().Price(&priced)
	milli := func(c *telemetry.Counter, cur float64, last *int64) {
		m := int64(cur * 1000)
		s.tel.Add(c, m-*last)
		*last = m
	}
	milli(telCyclesInterp, priced.InterpCycles, &s.telLast.interp)
	milli(telCyclesFrag, priced.FragCycles, &s.telLast.frag)
	milli(telCyclesProfile, priced.ProfileCycles, &s.telLast.profile)
	milli(telCyclesBuild, priced.BuildCycles, &s.telLast.build)
	milli(telCyclesTrans, priced.TransCycles, &s.telLast.trans)
	delta := func(c *telemetry.Counter, cur int64, last *int64) {
		s.tel.Add(c, cur-*last)
		*last = cur
	}
	delta(telPathEvents, s.res.PathEvents, &s.telLast.pathEvents)
	delta(telFragEnters, s.res.FragEnters, &s.telLast.fragEnters)
	delta(telLinkedJumps, s.res.LinkedJumps, &s.telLast.linkedJumps)
	delta(telFragExits, s.res.FragExits, &s.telLast.fragExits)
	s.tel.Set(telHeadTableLen, int64(s.heads.len()))
	paths := 0 // NET and Static intern no paths
	if s.interner != nil {
		paths = s.interner.NumPaths()
	}
	s.tel.Set(telPathTableLen, int64(paths))
	s.tel.Set(telCacheResident, int64(s.cache.len()))
}

// telCycleMarks remembers the totals already exported (millicycles and
// volume counts), so syncs add deltas instead of re-counting.
type telCycleMarks struct {
	interp, frag, profile, build, trans            int64
	pathEvents, fragEnters, linkedJumps, fragExits int64
}
