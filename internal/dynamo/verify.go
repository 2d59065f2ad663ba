// Static program admission and the static scheme's load-time translation.
//
// Every System runs the CFG verifier (internal/cfg) over its program before
// executing a single instruction: a program with error-class malformations
// (wild jump targets, fall-through off the end, counterless infinite loops,
// ...) is refused with a structured *cfg.VerifyError rather than risking an
// interpreter fault mid-run. Verdicts are memoized per program pointer — an
// experiment grid spawns many Systems over the same read-only program, and
// the verifier only needs to run once.
package dynamo

import (
	"sync"

	"netpath/internal/cfg"
	"netpath/internal/dataflow"
	"netpath/internal/isa"
	"netpath/internal/prog"
	"netpath/internal/staticpred"
)

// Bounds of the per-program memos (verifier verdicts, dataflow facts). A
// resident server verifies an endless stream of fresh programs, and an
// unbounded memo would both leak and pin every submitted program against
// garbage collection. An entry bound alone is not enough: 4096 quota-sized
// programs pin gigabytes, so the memos are bounded by the words their
// programs retain (prog.Program.Footprint) as well. The nine benchmarks of
// an experiment grid retain about 105K words, far inside both bounds.
const (
	memoMaxEntries = 4096
	memoMaxWords   = 1 << 21
)

// progMemo memoizes a per-program result by program identity. Programs are
// immutable after Freeze, so pointer identity is a sound key and staleness
// is impossible. Eviction is FIFO: crossing either bound drops the oldest
// entries until both hold again, so a burst of fresh programs evicts the
// burst's predecessors rather than a grid's whole working set.
type progMemo[V any] struct {
	mu    sync.Mutex
	m     map[*prog.Program]V
	order []*prog.Program // insertion order, for FIFO eviction
	words int             // sum of Footprint over order
}

func newProgMemo[V any]() *progMemo[V] {
	return &progMemo[V]{m: make(map[*prog.Program]V)}
}

// do returns the memoized result for p, computing it with f (outside the
// lock) on a miss. Two racing misses both compute; the results agree.
func (c *progMemo[V]) do(p *prog.Program, f func(*prog.Program) V) V {
	c.mu.Lock()
	v, ok := c.m[p]
	c.mu.Unlock()
	if ok {
		return v
	}
	v = f(p)
	c.put(p, v)
	return v
}

// put records v for p and evicts the oldest entries until both bounds hold.
// The newest entry always stays, so even an oversized program is memoized
// until the next insert.
func (c *progMemo[V]) put(p *prog.Program, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[p]; ok {
		c.m[p] = v
		return
	}
	c.m[p] = v
	c.order = append(c.order, p)
	c.words += p.Footprint()
	for len(c.order) > 1 && (len(c.order) > memoMaxEntries || c.words > memoMaxWords) {
		old := c.order[0]
		c.order[0] = nil // release the program to the collector
		c.order = c.order[1:]
		delete(c.m, old)
		c.words -= old.Footprint()
	}
}

// verifyCache memoizes Verify's verdicts.
var verifyCache = newProgMemo[error]()

// Verify returns the static verifier's verdict for p (cfg.VerifyProgram),
// computing it at most once per resident program. It is the gate New runs
// at load time, so a caller that verifies a program and then hands the same
// pointer to New pays for verification once.
func Verify(p *prog.Program) error {
	return verifyCache.do(p, cfg.VerifyProgram)
}

// prebuildStatic populates the fragment cache from the static predictor's
// maximum-likelihood walks — the static scheme's whole "profiling" phase,
// run at load time with zero runtime counters. Each completed walk becomes
// a trace recorded exactly as the online recorder would have recorded it
// (one GuestStep per predicted instruction), then optimized and installed
// through the ordinary emit path so cycle accounting charges the one-time
// translation cost. Walks that abort on indirect control carry no steps and
// are skipped; a trailing halt is trimmed because online recordings end at
// path boundaries, never at the halt itself.
func (s *System) prebuildStatic(p *prog.Program) {
	a, err := staticpred.Analyze(p)
	if err != nil {
		// Analyze only fails where the verifier would have failed first;
		// a verified program always analyzes. Degrade to an empty cache.
		return
	}
	built := 0
	for _, w := range a.Walks() {
		if w.Aborted || len(w.Steps) == 0 {
			continue
		}
		steps := make([]dataflow.GuestStep, 0, len(w.Steps))
		for _, st := range w.Steps {
			in := p.Instrs[st.PC]
			if in.Op == isa.Halt {
				break
			}
			steps = append(steps, dataflow.GuestStep{PC: st.PC, In: in, Next: st.Next})
		}
		if len(steps) == 0 || s.cache.get(w.Head) != nil {
			continue
		}
		s.emit(w.Head, steps)
		built++
	}
	if s.tel != nil {
		s.tel.Add(telStaticPrebuilt, int64(built))
	}
}
