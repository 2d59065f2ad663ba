// Package predict implements online hot path prediction schemes (Section 4
// of the paper). A predictor consumes the stream of completed path
// executions and decides, online, which paths to predict hot. The metrics
// package replays a recorded path stream through a predictor and scores the
// predictions against the oracle HotPath set.
//
// The two schemes the paper compares are:
//
//   - Path-profile-based prediction: profile every path; when a path's
//     execution count exceeds the prediction delay τ, predict it.
//   - NET (Next Executing Tail) prediction: keep a counter only at each path
//     head (target of a backward taken branch); when a head's counter
//     exceeds τ, speculatively select the next executing tail from that head
//     as a hot path.
//
// State is slice-backed and grows on demand: path IDs are dense interner
// indices and heads are instruction addresses, so replaying multi-million
// event streams across a τ sweep stays cheap.
package predict

import (
	"netpath/internal/path"
	"netpath/internal/telemetry"
)

// Predictor is an online hot path prediction scheme.
//
// The replay protocol: for each path execution, the evaluator first asks
// IsPredicted(id). If true, the execution is predicted flow (a cache hit in
// a dynamic optimizer) and the predictor is NOT shown the execution —
// exactly as a cached path in Dynamo bypasses the profiled interpreter.
// If false, the execution is profiled flow and Observe(id) is called, which
// may predict id (effective for subsequent executions).
type Predictor interface {
	// Name identifies the scheme.
	Name() string
	// IsPredicted reports whether id has been predicted hot.
	IsPredicted(id path.ID) bool
	// Observe consumes one unpredicted execution of id and returns true if
	// this observation predicted id.
	Observe(id path.ID) bool
	// PredictedCount returns the number of paths predicted so far.
	PredictedCount() int
	// CounterSpace returns the number of distinct counters the scheme has
	// allocated (the space metric of Section 5.2).
	CounterSpace() int
	// Reset clears all state.
	Reset()
}

// predictedSet is the shared predicted-path bookkeeping.
type predictedSet struct {
	set   []bool
	count int
	tel   *telemetry.Sink // nil = no reporting (see telemetry.go)
}

func (s *predictedSet) IsPredicted(id path.ID) bool {
	return int(id) < len(s.set) && s.set[id]
}

func (s *predictedSet) PredictedCount() int { return s.count }

// add predicts id, reporting a newly predicted path to telemetry.
func (s *predictedSet) add(id path.ID) {
	if id < 0 {
		return
	}
	for int(id) >= len(s.set) {
		s.set = append(s.set, false)
	}
	if !s.set[id] {
		s.set[id] = true
		s.count++
		s.report()
	}
}

func (s *predictedSet) reset() {
	s.set = s.set[:0]
	s.count = 0
}

// counterTable is a growable dense counter array with allocation tracking
// (a counter stays "allocated" even when its value returns to zero, as NET's
// reset-on-selection requires). Counters saturate at counterMax so a
// corrupted or adversarial stream can never wrap a counter negative.
type counterTable struct {
	vals      []int64
	allocated []bool
	space     int
}

// counterMax is the counter saturation point: far above any meaningful τ,
// far below overflow.
const counterMax = int64(1) << 50

func (c *counterTable) grow(i int) {
	for i >= len(c.vals) {
		c.vals = append(c.vals, 0)
		c.allocated = append(c.allocated, false)
	}
}

// incr allocates (if needed) and increments counter i, returning the new
// value. Negative indices (corrupted path IDs) are ignored and report 0.
func (c *counterTable) incr(i int) int64 {
	if i < 0 {
		return 0
	}
	c.grow(i)
	if !c.allocated[i] {
		c.allocated[i] = true
		c.space++
	}
	if c.vals[i] < counterMax {
		c.vals[i]++
	}
	return c.vals[i]
}

func (c *counterTable) zero(i int) {
	if i >= 0 && i < len(c.vals) {
		c.vals[i] = 0
	}
}

func (c *counterTable) reset() {
	c.vals = c.vals[:0]
	c.allocated = c.allocated[:0]
	c.space = 0
}

// PathProfile is path-profile-based prediction: a counter per path, predict
// when the counter reaches the delay τ.
type PathProfile struct {
	predictedSet
	Tau    int64
	counts counterTable
}

// NewPathProfile returns a path-profile-based predictor with delay tau.
func NewPathProfile(tau int64) *PathProfile {
	return &PathProfile{Tau: tau}
}

// Name implements Predictor.
func (p *PathProfile) Name() string { return "pathprofile" }

// Observe implements Predictor.
func (p *PathProfile) Observe(id path.ID) bool {
	if p.counts.incr(int(id)) >= p.Tau {
		p.add(id)
		return true
	}
	return false
}

// CounterSpace implements Predictor: one counter per distinct path seen.
func (p *PathProfile) CounterSpace() int { return p.counts.space }

// Reset implements Predictor.
func (p *PathProfile) Reset() {
	p.reset()
	p.counts.reset()
}

// HeadOf maps a path to its head address; predictors that count at path
// heads obtain it from the path interner.
type HeadOf func(id path.ID) int

// NET is Next Executing Tail prediction. One counter per path head counts
// executions of not-yet-predicted paths starting there; when it reaches τ,
// the tail executing at that moment is selected and the counter resets.
//
// The counter reset models Dynamo's secondary trace formation: after a trace
// is selected for a head, later unpredicted tails from the same region keep
// accumulating and can be selected in turn. Disable it (Single=true) to
// model primary-trace-only selection.
type NET struct {
	predictedSet
	Tau    int64
	Single bool

	head   HeadOf
	counts counterTable
	done   []bool // heads retired in Single mode
}

// NewNET returns a NET predictor with delay tau.
func NewNET(tau int64, head HeadOf) *NET {
	return &NET{Tau: tau, head: head}
}

// NewNETSingle returns the primary-trace-only NET variant (each head
// selects at most one tail, ever); used in ablation benchmarks.
func NewNETSingle(tau int64, head HeadOf) *NET {
	n := NewNET(tau, head)
	n.Single = true
	return n
}

// Name implements Predictor.
func (n *NET) Name() string {
	if n.Single {
		return "net-single"
	}
	return "net"
}

// Observe implements Predictor.
func (n *NET) Observe(id path.ID) bool {
	h := n.head(id)
	if h < 0 {
		// Unattributable path (corrupted ID or evicted head): not countable.
		return false
	}
	if n.Single && h < len(n.done) && n.done[h] {
		return false
	}
	if n.counts.incr(h) >= n.Tau {
		n.add(id)
		n.counts.zero(h)
		if n.Single {
			for h >= len(n.done) {
				n.done = append(n.done, false)
			}
			n.done[h] = true
		}
		return true
	}
	return false
}

// CounterSpace implements Predictor: one counter per distinct head seen.
func (n *NET) CounterSpace() int { return n.counts.space }

// Reset implements Predictor.
func (n *NET) Reset() {
	n.reset()
	n.counts.reset()
	n.done = n.done[:0]
}

// Immediate predicts every path on its first execution (τ = 0 limit): the
// upper bound on hit rate and on noise. Used as a reference point — the
// paper notes that if hit rate were the only measure, predicting everything
// immediately would be trivially optimal.
type Immediate struct {
	predictedSet
}

// NewImmediate returns an Immediate predictor.
func NewImmediate() *Immediate { return &Immediate{} }

// Name implements Predictor.
func (p *Immediate) Name() string { return "immediate" }

// Observe implements Predictor.
func (p *Immediate) Observe(id path.ID) bool { p.add(id); return true }

// CounterSpace implements Predictor: the scheme needs no counters, only the
// predicted set itself.
func (p *Immediate) CounterSpace() int { return 0 }

// Reset implements Predictor.
func (p *Immediate) Reset() { p.reset() }

// Oracle predicts exactly a fixed set of paths on their first execution: the
// best any scheme that must see a path once could do against that set. Used
// as a reference bound with the oracle HotPath set.
type Oracle struct {
	predictedSet
	hot []bool
}

// NewOracle returns an Oracle predictor over the hot membership vector.
func NewOracle(isHot []bool) *Oracle {
	return &Oracle{hot: isHot}
}

// Name implements Predictor.
func (p *Oracle) Name() string { return "oracle" }

// Observe implements Predictor.
func (p *Oracle) Observe(id path.ID) bool {
	if int(id) < len(p.hot) && p.hot[id] {
		p.add(id)
		return true
	}
	return false
}

// CounterSpace implements Predictor.
func (p *Oracle) CounterSpace() int { return 0 }

// Reset implements Predictor.
func (p *Oracle) Reset() { p.reset() }

// Compile-time interface checks.
var (
	_ Predictor = (*PathProfile)(nil)
	_ Predictor = (*NET)(nil)
	_ Predictor = (*Immediate)(nil)
	_ Predictor = (*Oracle)(nil)
)
