// Robustness machinery: the fault-injection seam, the capacity-bounded
// head-counter table, and the trace-head blacklist with exponential
// backoff. Real Dynamo is defined as much by its bail-out and guard
// behavior as by its speedups; this file is where the mini-Dynamo learns to
// survive adversity (injected faults, counter corruption, pathological
// table growth) instead of aborting or growing without bound.
package dynamo

// Injector is the fault-injection seam of Config.Chaos, implemented by
// chaos.Injector. All methods must be deterministic in their arguments so
// runs stay replayable. The system polls the step-indexed methods at its
// integration points. Trap, AbortRecording and AbortFragment are per-step
// streams: the system polls them where a per-instruction stepper would,
// but runs its batched loops without polling up to the step Next reports,
// so a poll at an earlier step must be a no-op.
type Injector interface {
	// Trap returns the machine fault to deliver before the instruction at pc
	// executes as machine step step+1, or nil.
	Trap(step int64, pc int) error
	// Next returns the smallest machine steps at which Trap (trap) and
	// AbortRecording or AbortFragment (abort) can next fire.
	Next() (trap, abort int64)
	// AbortRecording reports whether the trace recording (NET) or path
	// capture (PathProfile) in flight should abort at this machine step.
	AbortRecording(step int64) bool
	// AbortFragment reports whether the fragment execution in flight should
	// abort at this machine step.
	AbortFragment(step int64) bool
	// CorruptCounter reports a profiling-counter corruption delta due at
	// this machine step.
	CorruptCounter(step int64) (delta int64, ok bool)
	// SpikeSelect reports whether a trace selection should be forced at
	// this machine step regardless of counter state.
	SpikeSelect(step int64) bool
}

// headCounterMax is the saturation point of head counters: corruption may
// pin a counter here but can never overflow it.
const headCounterMax = int64(1) << 50

// headTable is a capacity-bounded counter map with CLOCK eviction. NET's
// whole pitch is its tiny counter space, but on a pathological workload
// (every backward-branch target cold and distinct) even a head-counter map
// grows without bound; the cap makes the memory ceiling hard and the
// governor watches the eviction rate for thrash. max <= 0 means unbounded.
//
// index maps a head address to its slot plus one (0: no counter) and grows
// to the highest address counted, so a lookup is a slice index.
//
// prior holds, per slot, the count a snapshot restore seeded: it counts
// toward τ like any other, but observed reports only what the run added on
// top. It stays nil — and costs nothing — in a System that restored nothing.
type headTable struct {
	max       int
	index     []int32
	keys      []int
	vals      []int64
	prior     []int64
	ref       []bool
	hand      int
	evictions int64
}

func newHeadTable(max int) *headTable {
	return &headTable{max: max}
}

// reset forgets every counter, keeping the storage for the next run.
func (t *headTable) reset() {
	for _, k := range t.keys {
		t.index[k] = 0
	}
	t.keys, t.vals, t.ref = t.keys[:0], t.vals[:0], t.ref[:0]
	t.prior = nil
	t.hand, t.evictions = 0, 0
}

// slot returns key's slot, if it has a counter.
func (t *headTable) slot(key int) (int, bool) {
	if uint(key) < uint(len(t.index)) {
		if i := t.index[key]; i > 0 {
			return int(i - 1), true
		}
	}
	return 0, false
}

// add adds delta to key's counter (allocating it if new, evicting if full)
// and returns the new value. Counters saturate at [0, headCounterMax].
func (t *headTable) add(key int, delta int64) int64 {
	i, ok := t.slot(key)
	if !ok {
		if t.max > 0 && len(t.keys) >= t.max {
			i = t.evict()
			t.index[t.keys[i]] = 0
			t.keys[i] = key
			t.vals[i] = 0
			if t.prior != nil {
				t.prior[i] = 0
			}
		} else {
			i = len(t.keys)
			t.keys = append(t.keys, key)
			t.vals = append(t.vals, 0)
			t.ref = append(t.ref, false)
			if t.prior != nil {
				t.prior = append(t.prior, 0)
			}
		}
		if key >= len(t.index) {
			t.index = append(t.index, make([]int32, key+1-len(t.index))...)
		}
		t.index[key] = int32(i + 1)
	}
	t.ref[i] = true
	v := t.vals[i] + delta
	if v < 0 {
		v = 0
	}
	if v > headCounterMax {
		v = headCounterMax
	}
	t.vals[i] = v
	return v
}

// evict picks a victim slot by the CLOCK rule (slots referenced since the
// hand last passed are spared once).
func (t *headTable) evict() int {
	for t.ref[t.hand] {
		t.ref[t.hand] = false
		t.hand = (t.hand + 1) % len(t.keys)
	}
	i := t.hand
	t.hand = (t.hand + 1) % len(t.keys)
	t.evictions++
	return i
}

// zero resets key's counter without deallocating it; whatever it counts
// from here on is observed.
func (t *headTable) zero(key int) {
	if i, ok := t.slot(key); ok {
		t.vals[i] = 0
		if t.prior != nil {
			t.prior[i] = 0
		}
	}
}

// seed adds a restored count to key's counter and records it as the slot's
// prior (snapshot restore).
func (t *headTable) seed(key int, count int64) {
	if t.prior == nil {
		t.prior = make([]int64, len(t.keys))
	}
	t.add(key, count)
	i, _ := t.slot(key)
	t.prior[i] = t.vals[i]
}

// observed returns slot i's count net of its restored prior.
func (t *headTable) observed(i int) int64 {
	if t.prior == nil {
		return t.vals[i]
	}
	return max(0, t.vals[i]-t.prior[i])
}

// len returns the number of live counters.
func (t *headTable) len() int { return len(t.keys) }

// blacklistEntry tracks recording aborts at one trace head.
type blacklistEntry struct {
	aborts int   // faults observed recording from this head
	wait   int64 // selection attempts to suppress before the next retry
}

// blacklist maps trace heads to their abort/backoff state. A head whose
// recording aborted is not retried immediately: each abort doubles the
// number of would-be selections that are skipped first (exponential
// backoff), and after maxAborts the head is demoted to interpretation for
// good. Entries are only created on aborts, so the table is bounded by the
// fault count.
type blacklist struct {
	entries   map[int]*blacklistEntry
	backoff   int64 // base backoff in suppressed selections (≥1)
	maxAborts int   // aborts before a head is permanently blacklisted
	skips     int64 // selections suppressed so far
}

func newBlacklist(backoff int64, maxAborts int) *blacklist {
	if backoff < 1 {
		backoff = 1
	}
	return &blacklist{entries: make(map[int]*blacklistEntry), backoff: backoff, maxAborts: maxAborts}
}

// abort records a recording abort at head, raising its backoff, and returns
// the head's total abort count (telemetry reports it in the blacklist event).
func (b *blacklist) abort(head int) int {
	e := b.entries[head]
	if e == nil {
		e = &blacklistEntry{}
		b.entries[head] = e
	}
	e.aborts++
	shift := uint(e.aborts - 1)
	if shift > 16 {
		shift = 16
	}
	e.wait = b.backoff << shift
	return e.aborts
}

// allow reports whether a selection at head may proceed, consuming one
// backoff credit when it may not.
func (b *blacklist) allow(head int) bool {
	e := b.entries[head]
	if e == nil {
		return true
	}
	if b.maxAborts > 0 && e.aborts >= b.maxAborts {
		b.skips++
		return false
	}
	if e.wait > 0 {
		e.wait--
		b.skips++
		return false
	}
	return true
}

// seed imports persisted abort state for head (snapshot restore): the entry
// jumps straight to the given abort count with the backoff abort() would
// have left after the last one. Imports never lower an existing count.
func (b *blacklist) seed(head int, aborts int) {
	if aborts <= 0 {
		return
	}
	e := b.entries[head]
	if e == nil {
		e = &blacklistEntry{}
		b.entries[head] = e
	}
	if aborts <= e.aborts {
		return
	}
	e.aborts = aborts
	shift := uint(aborts - 1)
	if shift > 16 {
		shift = 16
	}
	e.wait = b.backoff << shift
}

// barred reports whether head is permanently blacklisted, without consuming
// a backoff credit the way allow does. Restore uses it to decide which
// persisted traces may be installed.
func (b *blacklist) barred(head int) bool {
	e := b.entries[head]
	return e != nil && b.maxAborts > 0 && e.aborts >= b.maxAborts
}

// permanent returns the number of permanently blacklisted heads.
func (b *blacklist) permanent() int {
	n := 0
	for _, e := range b.entries {
		if b.maxAborts > 0 && e.aborts >= b.maxAborts {
			n++
		}
	}
	return n
}
