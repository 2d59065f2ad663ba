// Package snapshot defines the persistent profile format (netpath-snap/v1):
// NET head counters, selected traces, path-profile counts, blacklist state,
// and tier-2 promotion decisions serialized from a live dynamo.System so a
// later process — or a whole fleet of them — can warm-start prediction
// instead of re-paying the interpret-and-profile phase.
//
// Merging is a join, not a sum: every counter merges by MAX, every head
// keeps its highest-flow trace, and blacklists union with MAX aborts. Join
// semantics make Merge commutative, associative, and idempotent under
// self-merge, which is what fleet aggregation needs — re-uploading the same
// snapshot (retries, overlapping collection windows, fan-in trees that see a
// leaf twice) is a no-op rather than double-counting. Flow weighting lives
// in the survivor rules: when two runs disagree about a head's trace, the
// one that carried more completions wins. A merged count therefore reads as
// the deepest single run folded in, never a fleet total. That holds under
// warm-start chains too, because a snapshot carries only what its own run
// observed: the counts a restore seeded are never re-persisted, so
// restore → run → snapshot → merge converges on the single-run hot set.
//
// Merge is a linear merge-join over the canonically sorted sections; an
// input section that is not sorted is sorted as a copy first.
//
// Capacity is enforced separately from merging: Clamp deterministically
// trims a snapshot to a Limits budget (top-N by weight), so imports respect
// the CLOCK table bounds of the restoring System without breaking the merge
// algebra (a capacity-aware merge would not be associative).
package snapshot

import (
	"bytes"
	"cmp"
	"slices"
)

// Schema identifies the wire format; bump on incompatible changes.
const Schema = "netpath-snap/v1"

// counterMax mirrors the dynamo head-counter saturation point: no count in a
// snapshot may exceed it, so merged counters can never overflow.
const counterMax = int64(1) << 50

// File is the on-disk document: one or more snapshots under a single schema
// header. cmd/dynamo writes one; netpathd writes one per (tenant, program).
type File struct {
	Schema    string      `json:"schema"`
	Snapshots []*Snapshot `json:"snapshots"`
}

// NewFile wraps snapshots in a schema-stamped document.
func NewFile(snaps ...*Snapshot) *File {
	return &File{Schema: Schema, Snapshots: snaps}
}

// Snapshot is one program's persisted profile.
type Snapshot struct {
	// Tenant scopes the profile in multi-tenant deployments ("" for the
	// single-tenant CLI). A restoring server must only apply a snapshot to
	// the tenant it was collected from.
	Tenant string `json:"tenant,omitempty"`
	// Program and Fingerprint identify the guest; Restore refuses a
	// snapshot whose fingerprint does not match the loaded program, so a
	// stale profile can never seed traces into the wrong binary.
	Program     string `json:"program"`
	Fingerprint uint64 `json:"fingerprint"`
	// Scheme is the prediction scheme the profile was collected under
	// (dynamo.Scheme.String()).
	Scheme string `json:"scheme"`
	// Tau is the prediction delay in force during collection.
	Tau int64 `json:"tau"`
	// Flow is the number of path events observed; Steps the guest steps.
	// Both merge by MAX (join semantics), so they read as "the deepest
	// single run folded in", not a fleet total.
	Flow  int64 `json:"flow"`
	Steps int64 `json:"steps"`

	// CapturedUnixNS and TraceID are provenance: when the profile was
	// captured and, when the collecting run was traced, the request trace it
	// belongs to — so a warm-start anomaly can be chased back through
	// /v1/trace/{id} to the run that produced the profile. They merge as a
	// single lexicographic MAX on (CapturedUnixNS, TraceID), which keeps the
	// merge algebra commutative, associative, and idempotent: a fleet merge
	// reports the newest contributing capture.
	CapturedUnixNS int64  `json:"captured_unix_ns,omitempty"`
	TraceID        string `json:"trace_id,omitempty"`

	Heads     []HeadCount  `json:"heads,omitempty"`
	Traces    []Trace      `json:"traces,omitempty"`
	Paths     []PathCount  `json:"paths,omitempty"`
	Blacklist []BlackEntry `json:"blacklist,omitempty"`
}

// HeadCount is one NET head counter.
type HeadCount struct {
	Addr  int   `json:"addr"`
	Count int64 `json:"count"`
}

// Trace is one selected trace: the instruction sequence recorded from a hot
// head, its observed completion flow, and whether the collecting run had
// promoted it to tier 2. Instruction words are not persisted — the restoring
// side re-derives them from the (fingerprint-verified) program text, so a
// snapshot cannot smuggle code.
type Trace struct {
	Start int    `json:"start"`
	Flow  int64  `json:"flow"`
	Tier2 bool   `json:"tier2,omitempty"`
	Steps []Step `json:"steps"`
}

// Step is one recorded trace step: the instruction address and its observed
// successor.
type Step struct {
	PC   int `json:"pc"`
	Next int `json:"next"`
}

// PathCount is one path-profile counter, keyed by the path's bit-tracing
// signature (binary; base64 on the wire).
type PathCount struct {
	Key      []byte `json:"key"`
	Start    int    `json:"start"`
	Branches int    `json:"branches"`
	Count    int64  `json:"count"`
}

// BlackEntry is one blacklisted head: a head whose recordings kept aborting.
// Persisting it keeps a fleet from re-learning a poisonous head in every
// process.
type BlackEntry struct {
	Addr   int `json:"addr"`
	Aborts int `json:"aborts"`
}

// Limits bounds what a decoded or imported snapshot may hold. The decode
// path enforces them strictly (typed errors); Clamp trims to them. The
// dynamo side derives a Limits from its table configuration so imports can
// never outsize the CLOCK tables.
type Limits struct {
	MaxHeads      int   // head-counter entries per snapshot
	MaxTraces     int   // traces per snapshot
	MaxTraceSteps int   // steps per trace
	MaxPaths      int   // path counters per snapshot
	MaxPathKey    int   // bytes per path signature key
	MaxBlacklist  int   // blacklist entries per snapshot
	MaxSnapshots  int   // snapshots per file
	MaxBytes      int64 // encoded file size
}

// DefaultLimits matches the dynamo DefaultConfig table capacities.
func DefaultLimits() Limits {
	return Limits{
		MaxHeads:      1 << 16,
		MaxTraces:     8192,
		MaxTraceSteps: 4096,
		MaxPaths:      1 << 18,
		MaxPathKey:    1024,
		MaxBlacklist:  4096,
		MaxSnapshots:  1024,
		MaxBytes:      64 << 20,
	}
}

// withDefaults fills zero fields so a partially-specified Limits stays safe.
func (l Limits) withDefaults() Limits {
	d := DefaultLimits()
	if l.MaxHeads <= 0 {
		l.MaxHeads = d.MaxHeads
	}
	if l.MaxTraces <= 0 {
		l.MaxTraces = d.MaxTraces
	}
	if l.MaxTraceSteps <= 0 {
		l.MaxTraceSteps = d.MaxTraceSteps
	}
	if l.MaxPaths <= 0 {
		l.MaxPaths = d.MaxPaths
	}
	if l.MaxPathKey <= 0 {
		l.MaxPathKey = d.MaxPathKey
	}
	if l.MaxBlacklist <= 0 {
		l.MaxBlacklist = d.MaxBlacklist
	}
	if l.MaxSnapshots <= 0 {
		l.MaxSnapshots = d.MaxSnapshots
	}
	if l.MaxBytes <= 0 {
		l.MaxBytes = d.MaxBytes
	}
	return l
}

// Key identifies the merge group a snapshot belongs to: merging across
// different tenants, programs, or schemes is a caller bug and Merge refuses
// it.
type Key struct {
	Tenant      string
	Fingerprint uint64
	Scheme      string
}

// GroupKey returns s's merge group.
func (s *Snapshot) GroupKey() Key {
	return Key{Tenant: s.Tenant, Fingerprint: s.Fingerprint, Scheme: s.Scheme}
}

// Canonicalize sorts every section into its canonical order (heads and
// blacklist by address, traces by start, paths by key) so equal snapshots
// compare equal byte-for-byte and encoded files diff cleanly. Sections that
// are already in order are left alone.
func (s *Snapshot) Canonicalize() {
	sortIfNeeded(s.Heads, headCmp)
	sortIfNeeded(s.Traces, traceCmp)
	sortIfNeeded(s.Paths, pathCmp)
	sortIfNeeded(s.Blacklist, blackCmp)
}

// The canonical orders of the four sections.
func headCmp(a, b HeadCount) int   { return cmp.Compare(a.Addr, b.Addr) }
func traceCmp(a, b Trace) int      { return cmp.Compare(a.Start, b.Start) }
func pathCmp(a, b PathCount) int   { return bytes.Compare(a.Key, b.Key) }
func blackCmp(a, b BlackEntry) int { return cmp.Compare(a.Addr, b.Addr) }

func sortIfNeeded[T any](x []T, cmp func(a, b T) int) {
	if !slices.IsSortedFunc(x, cmp) {
		slices.SortFunc(x, cmp)
	}
}

// sortedView returns x in cmp order: x itself when it already is, else a
// sorted copy (Merge never modifies its inputs).
func sortedView[T any](x []T, cmp func(a, b T) int) []T {
	if slices.IsSortedFunc(x, cmp) {
		return x
	}
	x = slices.Clone(x)
	slices.SortFunc(x, cmp)
	return x
}

// join merge-joins two sections into one entry per key, in canonical order.
// Each input is walked once in cmp order (unsorted inputs are sorted as a
// copy); every entry is normalized by norm, each run of equal keys from
// either input folds to its survivor under better (does x beat cur?), and
// keep filters the survivor and copies what it must not share with the
// inputs.
func join[T any](a, b []T, cmp func(x, y T) int, norm func(T) T,
	better func(cur, x T) bool, keep func(T) (T, bool)) []T {
	a, b = sortedView(a, cmp), sortedView(b, cmp)
	var out []T
	for len(a) > 0 || len(b) > 0 {
		var cur T
		if len(b) == 0 || (len(a) > 0 && cmp(a[0], b[0]) <= 0) {
			cur = a[0]
		} else {
			cur = b[0]
		}
		cur = norm(cur)
		fold := func(in []T) []T {
			for ; len(in) > 0 && cmp(in[0], cur) == 0; in = in[1:] {
				if x := norm(in[0]); better(cur, x) {
					cur = x
				}
			}
			return in
		}
		a, b = fold(a), fold(b)
		if v, ok := keep(cur); ok {
			out = append(out, v)
		}
	}
	return out
}

func satAdd(v int64) int64 {
	if v < 0 {
		return 0
	}
	if v > counterMax {
		return counterMax
	}
	return v
}

// Merge joins a and b into a fresh snapshot (neither input is modified).
// Per-head counters, per-path counts, and blacklist aborts merge by MAX;
// each head keeps the trace with the greater flow (ties broken by longer
// trace, then byte order, so the survivor is deterministic); Flow, Steps,
// and Tau merge by MAX. The result is canonical. See the package comment
// for why join, not sum.
func Merge(a, b *Snapshot) (*Snapshot, error) {
	if a.GroupKey() != b.GroupKey() {
		return nil, &MismatchError{A: a.GroupKey(), B: b.GroupKey()}
	}
	out := &Snapshot{
		Tenant:         a.Tenant,
		Program:        a.Program,
		Fingerprint:    a.Fingerprint,
		Scheme:         a.Scheme,
		Tau:            maxI64(a.Tau, b.Tau),
		Flow:           maxI64(a.Flow, b.Flow),
		Steps:          maxI64(a.Steps, b.Steps),
		CapturedUnixNS: a.CapturedUnixNS,
		TraceID:        a.TraceID,
	}
	if b.CapturedUnixNS > out.CapturedUnixNS ||
		(b.CapturedUnixNS == out.CapturedUnixNS && b.TraceID > out.TraceID) {
		out.CapturedUnixNS, out.TraceID = b.CapturedUnixNS, b.TraceID
	}

	out.Heads = join(a.Heads, b.Heads, headCmp,
		func(h HeadCount) HeadCount { h.Count = satAdd(h.Count); return h },
		func(cur, x HeadCount) bool { return x.Count > cur.Count },
		func(h HeadCount) (HeadCount, bool) { return h, true })
	out.Traces = join(a.Traces, b.Traces, traceCmp,
		func(t Trace) Trace { t.Flow = satAdd(t.Flow); return t },
		traceLess,
		func(t Trace) (Trace, bool) { t.Steps = append([]Step(nil), t.Steps...); return t, true })
	out.Paths = join(a.Paths, b.Paths, pathCmp,
		func(p PathCount) PathCount { p.Count = satAdd(p.Count); return p },
		pathLess,
		func(p PathCount) (PathCount, bool) { p.Key = append([]byte(nil), p.Key...); return p, true })
	out.Blacklist = join(a.Blacklist, b.Blacklist, blackCmp,
		func(e BlackEntry) BlackEntry { return e },
		func(cur, x BlackEntry) bool { return x.Aborts > cur.Aborts },
		func(e BlackEntry) (BlackEntry, bool) { return e, e.Aborts > 0 })
	return out, nil
}

// MergeAll folds snaps left to right (associativity makes the order
// irrelevant to the result). At least one snapshot is required.
func MergeAll(snaps []*Snapshot) (*Snapshot, error) {
	if len(snaps) == 0 {
		return nil, &FormatError{Field: "snapshots", Reason: "nothing to merge"}
	}
	acc := snaps[0]
	for _, s := range snaps[1:] {
		var err error
		if acc, err = Merge(acc, s); err != nil {
			return nil, err
		}
	}
	if acc == snaps[0] {
		// Single input: return a canonical copy so MergeAll never aliases
		// its argument.
		cp := *acc
		acc = &cp
		acc.Canonicalize()
	}
	return acc, nil
}

// traceLess reports whether b beats a as the surviving trace for a head.
// The survivor is the MAX under a total order on (flow, length, step bytes,
// tier-2 bit) — a pure max over a total order, which is exactly what makes
// Merge associative: the survivor of any merge tree is the argmax over all
// traces ever seen for the head, independent of grouping. The whole tuple
// survives, so the tier-2 decision always rides the trace that earned it;
// between byte-identical traces with equal flow, the promoted one wins.
func traceLess(a, b Trace) bool {
	if a.Flow != b.Flow {
		return a.Flow < b.Flow
	}
	if len(a.Steps) != len(b.Steps) {
		return len(a.Steps) < len(b.Steps)
	}
	for i := range a.Steps {
		if a.Steps[i] != b.Steps[i] {
			if a.Steps[i].PC != b.Steps[i].PC {
				return a.Steps[i].PC < b.Steps[i].PC
			}
			return a.Steps[i].Next < b.Steps[i].Next
		}
	}
	return !a.Tier2 && b.Tier2
}

// pathLess reports whether b beats a as the surviving count for a path key
// — the same pure max under a total order as traceLess. In well-formed data
// a key fully determines Start and Branches, but the order makes merging
// robust (and associative) even when inputs disagree.
func pathLess(a, b PathCount) bool {
	if a.Count != b.Count {
		return a.Count < b.Count
	}
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	return a.Branches < b.Branches
}

// Clamp trims s in place to fit lim, keeping the heaviest entries: heads and
// paths by count, traces by flow, blacklist by aborts (ties broken by
// address or key, so the trim is deterministic). Traces longer than
// MaxTraceSteps are dropped whole — truncating a trace would fabricate a
// path boundary that was never observed. The result is canonical. Clamp is
// applied at import time, after merging, so the merge algebra stays exact.
func (s *Snapshot) Clamp(lim Limits) {
	lim = lim.withDefaults()
	if len(s.Heads) > lim.MaxHeads {
		slices.SortFunc(s.Heads, func(a, b HeadCount) int {
			return cmp.Or(cmp.Compare(b.Count, a.Count), headCmp(a, b))
		})
		s.Heads = s.Heads[:lim.MaxHeads]
	}
	kept := s.Traces[:0]
	for _, t := range s.Traces {
		if n := len(t.Steps); n > 0 && n <= lim.MaxTraceSteps {
			kept = append(kept, t)
		}
	}
	s.Traces = kept
	if len(s.Traces) > lim.MaxTraces {
		slices.SortFunc(s.Traces, func(a, b Trace) int {
			return cmp.Or(cmp.Compare(b.Flow, a.Flow), traceCmp(a, b))
		})
		s.Traces = s.Traces[:lim.MaxTraces]
	}
	keptP := s.Paths[:0]
	for _, p := range s.Paths {
		if len(p.Key) <= lim.MaxPathKey {
			keptP = append(keptP, p)
		}
	}
	s.Paths = keptP
	if len(s.Paths) > lim.MaxPaths {
		slices.SortFunc(s.Paths, func(a, b PathCount) int {
			return cmp.Or(cmp.Compare(b.Count, a.Count), pathCmp(a, b))
		})
		s.Paths = s.Paths[:lim.MaxPaths]
	}
	if len(s.Blacklist) > lim.MaxBlacklist {
		slices.SortFunc(s.Blacklist, func(a, b BlackEntry) int {
			return cmp.Or(cmp.Compare(b.Aborts, a.Aborts), blackCmp(a, b))
		})
		s.Blacklist = s.Blacklist[:lim.MaxBlacklist]
	}
	s.Canonicalize()
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
