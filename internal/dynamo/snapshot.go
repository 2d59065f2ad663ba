// Persistent profile snapshots: System.Snapshot serializes the profiling
// state a run has paid for — NET head counters, selected traces with their
// completion flow and tier-2 decisions, path-profile counters, and the
// recording blacklist — and System.Restore replays that state into a fresh
// System before the first guest instruction, so a warmed process starts in
// the fragment cache instead of re-learning the hot set through the
// interpreter. The wire format, merge algebra, and capacity rules live in
// internal/snapshot; this file is the bridge to live dynamo state.
package dynamo

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"netpath/internal/dataflow"
	"netpath/internal/isa"
	"netpath/internal/path"
	"netpath/internal/snapshot"
	"netpath/internal/telemetry"
)

var (
	telSnapRestores = telemetry.NewCounter("dynamo_snapshot_restores_total",
		"successful warm-starts from a profile snapshot")
	telSnapRestoredFrags = telemetry.NewCounter("dynamo_snapshot_restored_fragments_total",
		"fragments pre-installed from persisted traces at restore")
	telSnapRestoredHeads = telemetry.NewCounter("dynamo_snapshot_restored_heads_total",
		"head counters pre-seeded from a profile snapshot")
	telSnapRestoredT2 = telemetry.NewCounter("dynamo_snapshot_restored_tier2_total",
		"persisted tier-2 promotions re-enqueued at restore")
	telSnapCaptures = telemetry.NewCounter("dynamo_snapshot_captures_total",
		"profile snapshots captured from live systems")
)

// Restore errors. RunContext is unaffected by a failed Restore: the System
// simply starts cold.
var (
	// ErrRestoreLive: Restore was called after the run started. Warm-start
	// state must be seeded before the first guest instruction — retrofitting
	// counters into a live run would corrupt the heuristics' arithmetic.
	ErrRestoreLive = errors.New("dynamo: Restore after run started")
	// ErrFingerprintMismatch: the snapshot was collected from a different
	// program image than the one this System is bound to.
	ErrFingerprintMismatch = errors.New("dynamo: snapshot fingerprint does not match program")
	// ErrSchemeMismatch: the snapshot was collected under a different
	// prediction scheme; its counters are not comparable.
	ErrSchemeMismatch = errors.New("dynamo: snapshot scheme does not match config")
)

// SnapshotLimits derives the import budget from this System's table
// configuration: a restored or merged-in snapshot is clamped to these before
// any of it touches the CLOCK-bounded tables, so a fleet-sized profile can
// never outsize a small shard.
func (s *System) SnapshotLimits() snapshot.Limits {
	lim := snapshot.DefaultLimits()
	if s.cfg.MaxHeadCounters > 0 {
		lim.MaxHeads = s.cfg.MaxHeadCounters
	}
	if s.cfg.MaxFragments > 0 {
		lim.MaxTraces = s.cfg.MaxFragments
	}
	if s.cfg.MaxPaths > 0 {
		lim.MaxPaths = s.cfg.MaxPaths
	}
	return lim
}

// Snapshot captures the System's current profiling state as a persistent
// snapshot (tenant scopes it for multi-tenant stores; "" for the CLI). It
// can be taken at any point — mid-run from a Probe, or after Run returns —
// and never perturbs the run. The result is canonical and self-contained:
// instruction words are re-derived from the program at restore, so the
// snapshot carries only addresses and counters.
//
// Every count is what this run observed: head counters, path counters and
// trace flow are reported net of the prior Restore seeded them with. A
// merged profile thus stays "the deepest single run" across warm-start
// chains instead of gaining one run's counts per generation.
func (s *System) Snapshot(tenant string) *snapshot.Snapshot {
	snap := &snapshot.Snapshot{
		Tenant:         tenant,
		Program:        s.m.Prog.Name,
		Fingerprint:    s.m.Prog.Fingerprint(),
		Scheme:         s.cfg.Scheme.String(),
		Tau:            s.cfg.Tau,
		Flow:           s.res.PathEvents,
		Steps:          s.m.Steps,
		CapturedUnixNS: time.Now().UnixNano(),
	}
	if s.tr != nil {
		snap.TraceID = s.tr.TraceID().String()
	}
	for i, k := range s.heads.keys {
		if v := s.heads.observed(i); v > 0 {
			snap.Heads = append(snap.Heads, snapshot.HeadCount{Addr: k, Count: v})
		}
	}
	for start, fr := range s.cache.frags {
		if fr == nil || len(fr.Steps) == 0 {
			continue
		}
		t := snapshot.Trace{Start: start, Flow: fr.Completions - fr.t2Base, Tier2: s.t2Decided(fr)}
		t.Steps = make([]snapshot.Step, len(fr.Steps))
		for i, st := range fr.Steps {
			t.Steps[i] = snapshot.Step{PC: st.PC, Next: st.Next}
		}
		snap.Traces = append(snap.Traces, t)
	}
	if s.cfg.Scheme == SchemePathProfile {
		for id, v := range s.pathCounts {
			if id < len(s.pathPrior) {
				v -= s.pathPrior[id]
			}
			if v <= 0 {
				continue
			}
			info := s.interner.Info(path.ID(id))
			snap.Paths = append(snap.Paths, snapshot.PathCount{
				Key:      []byte(info.Key),
				Start:    info.Start,
				Branches: info.Branches,
				Count:    v,
			})
		}
	}
	for head, e := range s.black.entries {
		if e.aborts > 0 {
			snap.Blacklist = append(snap.Blacklist, snapshot.BlackEntry{Addr: head, Aborts: e.aborts})
		}
	}
	snap.Canonicalize()
	if s.tel != nil {
		s.tel.Inc(telSnapCaptures)
	}
	return snap
}

// t2Decided reports whether the run decided fr belongs in tier 2: either it
// is queued for compilation or a real (non-tombstone) superblock is
// published. Rejected shapes (tombstones) are not persisted as decisions.
func (s *System) t2Decided(fr *Fragment) bool {
	if fr.t2Queued {
		return true
	}
	blk := fr.t2.Load()
	return blk != nil && blk.sb != nil
}

// Restore warm-starts the System from a persisted profile, before the first
// guest instruction: it seeds the blacklist, pre-seeds head counters,
// re-installs persisted traces as compiled fragments through the ordinary
// emit path (charging the same one-time translation cost prebuildStatic
// charges), re-arms path-profile counters, and re-enqueues persisted tier-2
// decisions on the background compiler — so the first execution of a hot
// address enters the cache instead of the interpreter.
//
// Seeded counts are a prior: they count toward τ (and order the restore)
// like any other, but Snapshot reports only what the run adds on top, and
// promotion counts only in-run completions. A head's prior is forgotten
// when its counter is zeroed at selection or its slot is recycled, a
// path's when the interner recycles its ID.
//
// The snapshot must match this System's program fingerprint and scheme, and
// is validated and clamped against SnapshotLimits first; a failed Restore
// leaves the System exactly as cold as it was. Addresses are bounds-checked
// against the (already verifier-gated) program, and a trace whose steps
// do not form a path from its start is skipped, so a forged snapshot can
// at worst install traces the run would abandon, never break memory safety
// or change what the guest computes.
func (s *System) Restore(snap *snapshot.Snapshot) error {
	if s.verifyErr != nil {
		return fmt.Errorf("dynamo: refusing to restore into unverified program: %w", s.verifyErr)
	}
	if s.m.Steps != 0 || s.res.PathEvents != 0 {
		return ErrRestoreLive
	}
	if snap.Fingerprint != s.m.Prog.Fingerprint() {
		return fmt.Errorf("%w: snapshot %#x, program %q %#x",
			ErrFingerprintMismatch, snap.Fingerprint, s.m.Prog.Name, s.m.Prog.Fingerprint())
	}
	if snap.Scheme != s.cfg.Scheme.String() {
		return fmt.Errorf("%w: snapshot %q, config %q", ErrSchemeMismatch, snap.Scheme, s.cfg.Scheme)
	}
	lim := s.SnapshotLimits()
	if err := snap.Validate(snapshot.Limits{MaxBytes: lim.MaxBytes}); err != nil {
		return err
	}
	// Clamp a copy to this System's table budget: the caller's snapshot may
	// be fleet-sized; ours must fit the shard.
	cl := *snap
	cl.Heads = append([]snapshot.HeadCount(nil), snap.Heads...)
	cl.Traces = append([]snapshot.Trace(nil), snap.Traces...)
	cl.Paths = append([]snapshot.PathCount(nil), snap.Paths...)
	cl.Blacklist = append([]snapshot.BlackEntry(nil), snap.Blacklist...)
	cl.Clamp(lim)

	// Blacklist first: a head the fleet burned out must not be re-installed
	// or re-counted by the seeding below.
	for _, e := range cl.Blacklist {
		s.black.seed(e.Addr, e.Aborts)
		s.res.RestoredBlacklist++
	}

	// Head counters, heaviest first, so if the table is somehow tighter than
	// the clamp (unbounded-config edge cases) the hot heads win the slots.
	slices.SortFunc(cl.Heads, func(a, b snapshot.HeadCount) int {
		return cmp.Or(cmp.Compare(b.Count, a.Count), cmp.Compare(a.Addr, b.Addr))
	})
	nInstr := s.m.Prog.Len()
	for _, h := range cl.Heads {
		if h.Addr >= nInstr || s.black.barred(h.Addr) {
			continue
		}
		s.heads.seed(h.Addr, h.Count)
		s.res.RestoredHeads++
	}

	// Traces, heaviest flow first: if the fragment budget is tight the
	// dominant paths get the cache slots, and installation stops before the
	// cache would flush (a warm-start must never begin life by flushing what
	// it just installed).
	slices.SortFunc(cl.Traces, func(a, b snapshot.Trace) int {
		return cmp.Or(cmp.Compare(b.Flow, a.Flow), cmp.Compare(a.Start, b.Start))
	})
	var decided []*Fragment // installed with a persisted tier-2 decision
	for _, t := range cl.Traces {
		if s.cache.len() >= s.cfg.MaxFragments {
			break
		}
		if t.Start >= nInstr || s.cache.get(t.Start) != nil || s.black.barred(t.Start) {
			continue
		}
		// A trace must be a path: its first step at Start, each step at
		// the previous step's successor. Tier 1 would only abandon a trace
		// that is not, but tier 2 executes the recorded instructions.
		steps := make([]dataflow.GuestStep, 0, len(t.Steps))
		ok := true
		at := t.Start
		for _, st := range t.Steps {
			if st.PC != at || st.PC >= nInstr || st.Next > nInstr {
				ok = false
				break
			}
			at = st.Next
			in := s.m.Prog.Instrs[st.PC]
			if in.Op == isa.Halt {
				break
			}
			steps = append(steps, dataflow.GuestStep{PC: st.PC, In: in, Next: st.Next})
		}
		if !ok || len(steps) == 0 {
			continue
		}
		s.emit(t.Start, steps)
		fr := s.cache.get(t.Start)
		if fr == nil {
			continue
		}
		fr.Completions = t.Flow
		fr.t2Base = t.Flow
		s.res.RestoredFragments++
		if t.Tier2 {
			decided = append(decided, fr)
		}
	}

	// Persisted tier-2 decisions: enqueue on the background compiler now,
	// before the first guest instruction, so compilation overlaps the run's
	// cold start. The decision is the collecting run's evidence; every other
	// restored fragment reaches tier 2 only on evidence from this run
	// (maybePromote), because its restored flow is a prior, not a count.
	// Enqueued after every trace is installed, so each chain links through
	// the whole restored cache.
	if s.t2c != nil {
		for _, fr := range decided {
			s.promote(fr)
			if fr.t2Queued {
				s.res.RestoredT2++
			}
		}
	}

	if s.cfg.Scheme == SchemePathProfile {
		for _, p := range cl.Paths {
			if p.Start >= nInstr {
				continue
			}
			id := s.interner.Intern(string(p.Key), p.Start, p.Branches)
			s.growPaths(id)
			if p.Count > s.pathCounts[id] {
				s.pathCounts[id] = p.Count
			}
			for int(id) >= len(s.pathPrior) {
				s.pathPrior = append(s.pathPrior, 0)
			}
			s.pathPrior[id] = s.pathCounts[id]
			if s.pathCounts[id] >= s.cfg.Tau {
				s.armed[id] = true
			}
			s.res.RestoredPaths++
		}
	}

	if s.tel != nil {
		s.tel.Inc(telSnapRestores)
		s.tel.Add(telSnapRestoredFrags, int64(s.res.RestoredFragments))
		s.tel.Add(telSnapRestoredHeads, int64(s.res.RestoredHeads))
		s.tel.Add(telSnapRestoredT2, int64(s.res.RestoredT2))
	}
	return nil
}

// LiveStats reports mid-run execution progress for Probe callbacks: guest
// steps executed, guest instructions run from the fragment cache (tier 1
// and tier 2 both), and total guest instructions executed so far.
func (s *System) LiveStats() (steps, fragInstrs, totalInstrs int64) {
	total := s.res.InterpInstrs + s.res.FragInstrs + s.res.NativeInstrs
	return s.m.Steps, s.res.FragInstrs, total
}

// LiveEvents reports mid-run path-event progress for Probe callbacks: path
// events observed so far and how many of them completed inside the fragment
// cache (tier 1 and tier 2 both). Their windowed ratio is the cache's hit
// rate on hot-path opportunities — the coverage a warm-start exists to
// raise.
func (s *System) LiveEvents() (pathEvents, cacheEvents int64) {
	return s.res.PathEvents, s.res.CacheEvents
}
