// Package path implements the paper's program path abstraction.
//
// An interprocedural forward path (Section 3 of the paper) starts at the
// target of a backward taken branch and extends up to the next backward
// taken branch. The path may extend across procedure calls and returns
// unless the call or return is a backward branch, and if the path includes a
// forward procedure call it terminates at the corresponding return.
//
// Paths are identified by their bit-tracing signature (Section 2):
//
//	<start_address>.<history>,<indirect_branch_target_list>
//
// where history carries one bit per conditional branch outcome and the list
// carries the target of every indirect transfer on the path. Signatures are
// constructed on the fly as the program executes; no static analysis is
// required.
package path

import (
	"encoding/binary"
	"fmt"
	"strings"

	"netpath/internal/isa"
	"netpath/internal/vm"
)

// ID is a dense index for an interned path.
type ID int32

// None is the invalid path ID.
const None ID = -1

// DefaultMaxBranches is the default cap on branch events per path. Every
// control instruction counts, a conditional branch that falls through
// included. Dynamo bounds trace length the same way; the cap keeps
// signatures and recorded traces finite in pathological loop-free stretches.
const DefaultMaxBranches = 64

// EndReason records why a path terminated.
type EndReason uint8

// Path termination reasons.
const (
	// EndBackward: a backward taken branch ended the path (the common case;
	// the next path starts at the branch target).
	EndBackward EndReason = iota
	// EndMatchedReturn: the path included a forward call and reached the
	// corresponding return.
	EndMatchedReturn
	// EndCap: the path reached the branch-count cap.
	EndCap
	// EndRestart: the tracker was externally restarted (fragment-cache
	// transitions in the Dynamo simulation).
	EndRestart
	// EndProgram: the program halted with this path in flight.
	EndProgram
)

var endNames = [...]string{"backward", "matched-return", "cap", "restart", "program-end"}

// String names the termination reason.
func (r EndReason) String() string {
	if int(r) < len(endNames) {
		return endNames[r]
	}
	return fmt.Sprintf("end(%d)", uint8(r))
}

// Info is the interned metadata of a path.
type Info struct {
	Start    int    // path head: the address the path begins at
	Branches int    // number of control-transfer events on the path
	Key      string // encoded signature (see Signature for the decoded form)
}

// Signature renders the path in the paper's textual signature form,
// "start.history,indirect-targets", e.g. "A.0101" with numeric addresses.
// Dump/debug output only — never called while tracking.
//
//netpathvet:cold
func (in Info) Signature() string {
	var hist strings.Builder
	var ind []string
	key := []byte(in.Key)
	// Skip the 4-byte start prefix.
	for i := 4; i < len(key); {
		switch key[i] {
		case '0', '1':
			hist.WriteByte(key[i])
			i++
		case 'I':
			t := binary.LittleEndian.Uint32(key[i+1 : i+5])
			ind = append(ind, fmt.Sprintf("%d", t))
			i += 5
		default:
			hist.WriteByte('?')
			i++
		}
	}
	s := fmt.Sprintf("%d.%s", in.Start, hist.String())
	if len(ind) > 0 {
		s += "," + strings.Join(ind, "+")
	}
	return s
}

// Interner assigns dense IDs to path signatures. By default the table grows
// without bound (offline profiling wants every path); SetCapacity bounds it
// for online use, recycling the least-recently-hit slot (CLOCK) when full so
// memory stays bounded on pathological workloads.
type Interner struct {
	ids   map[string]ID
	infos []Info

	// Bounded mode (SetCapacity): CLOCK slot recycling.
	max       int
	ref       []bool
	hand      int
	evictions int64
	onEvict   func(ID)
}

// NewInterner returns an empty, unbounded interner.
func NewInterner() *Interner {
	return &Interner{ids: make(map[string]ID)}
}

// SetCapacity bounds the interner to max distinct signatures. Once full,
// interning a new signature recycles an existing slot chosen by the CLOCK
// rule (slots hit since the hand last passed are spared once): the old
// signature is forgotten and its dense ID is reassigned to the new path.
// onEvict (optional) is called with the recycled ID before it is reassigned
// so callers can reset per-ID state. max <= 0 restores unbounded growth.
func (it *Interner) SetCapacity(max int, onEvict func(ID)) {
	it.max = max
	it.onEvict = onEvict
	if max > 0 && it.ref == nil {
		it.ref = make([]bool, len(it.infos))
	}
}

// Evictions returns the number of slots recycled so far (bounded mode).
func (it *Interner) Evictions() int64 { return it.evictions }

// Intern returns the ID for the signature key, creating it if new.
func (it *Interner) Intern(key string, start, branches int) ID {
	if id, ok := it.ids[key]; ok {
		if it.max > 0 {
			it.ref[id] = true
		}
		return id
	}
	return it.insert(key, start, branches)
}

// InternBytes is Intern for a transient byte-slice key — the profiling hot
// path. The map lookup compiles to an allocation-free probe (the
// string(key) conversion does not escape), so re-interning an
// already-known path costs zero allocations; the key is copied into an
// owned string only the first time a signature is seen. The caller may
// reuse key's backing array immediately (the Tracker passes its live
// SigBuilder buffer).
func (it *Interner) InternBytes(key []byte, start, branches int) ID {
	if id, ok := it.ids[string(key)]; ok {
		if it.max > 0 {
			it.ref[id] = true
		}
		return id
	}
	return it.insert(string(key), start, branches)
}

// insert adds a new signature (an owned string) to the table, recycling a
// slot in bounded mode.
func (it *Interner) insert(key string, start, branches int) ID {
	if it.max > 0 && len(it.infos) >= it.max {
		return it.recycle(key, start, branches)
	}
	id := ID(len(it.infos))
	it.ids[key] = id
	it.infos = append(it.infos, Info{Start: start, Branches: branches, Key: key})
	if it.max > 0 {
		it.ref = append(it.ref, true)
	}
	return id
}

// recycle reassigns a CLOCK-chosen slot to a new signature.
func (it *Interner) recycle(key string, start, branches int) ID {
	for it.ref[it.hand] {
		it.ref[it.hand] = false
		it.hand = (it.hand + 1) % len(it.infos)
	}
	id := ID(it.hand)
	it.hand = (it.hand + 1) % len(it.infos)
	it.evictions++
	if it.onEvict != nil {
		it.onEvict(id)
	}
	delete(it.ids, it.infos[id].Key)
	it.ids[key] = id
	it.infos[id] = Info{Start: start, Branches: branches, Key: key}
	it.ref[id] = true
	return id
}

// Lookup returns the ID for key, or None.
func (it *Interner) Lookup(key string) ID {
	if id, ok := it.ids[key]; ok {
		return id
	}
	return None
}

// NumPaths returns the number of distinct paths interned.
func (it *Interner) NumPaths() int { return len(it.infos) }

// Info returns the metadata for id.
func (it *Interner) Info(id ID) Info { return it.infos[id] }

// Head returns the start address of path id.
func (it *Interner) Head(id ID) int { return it.infos[id].Start }

// UniqueHeads returns the number of distinct path start addresses — the
// counter space NET prediction needs (Table 2).
func (it *Interner) UniqueHeads() int {
	heads := make(map[int]struct{})
	for _, in := range it.infos {
		heads[in.Start] = struct{}{}
	}
	return len(heads)
}

// Completed reports one finished path execution. ID is None when the
// tracker tracks boundaries only.
type Completed struct {
	ID       ID
	Reason   EndReason
	Branches int // control-transfer events on the path
}

// Tracker folds the VM branch event stream into a stream of completed
// interprocedural forward paths. It implements exactly the path definition
// above: signatures accumulate conditional outcomes and indirect targets;
// backward taken branches, matched returns and the branch cap terminate.
//
// A Tracker with a nil interner tracks boundaries only: it applies the same
// termination rules but builds no signature and interns nothing, so its
// completions carry ID None. NET needs no more than that: it counts path
// heads, never paths.
type Tracker struct {
	MaxBranches int

	interner   *Interner
	onComplete func(Completed)

	sig      SigBuilder // signature under construction
	start    int
	branches int
	depth    int // forward calls opened on this path
	active   bool
}

// NewTracker creates a tracker that interns into it (nil: boundaries only)
// and reports completed paths to onComplete. The first path starts at
// startAddr (program entry).
func NewTracker(it *Interner, startAddr int, onComplete func(Completed)) *Tracker {
	t := &Tracker{MaxBranches: DefaultMaxBranches, interner: it, onComplete: onComplete}
	t.reset(startAddr)
	return t
}

// Interner returns the tracker's interner.
func (t *Tracker) Interner() *Interner { return t.interner }

// CurrentStart returns the head address of the path under construction.
func (t *Tracker) CurrentStart() int { return t.start }

// CurrentBranches returns the number of events on the path in flight.
func (t *Tracker) CurrentBranches() int { return t.branches }

func (t *Tracker) reset(start int) {
	if t.interner != nil {
		t.sig.Reset(start)
	}
	t.start = start
	t.branches = 0
	t.depth = 0
	t.active = true
}

func (t *Tracker) complete(reason EndReason, nextStart int) {
	id := None
	if t.interner != nil {
		// InternBytes probes with the live signature buffer: completing an
		// already-known path (the steady state of every loop) allocates
		// nothing.
		id = t.interner.InternBytes(t.sig.Bytes(), t.start, t.branches)
	}
	if t.onComplete != nil {
		t.onComplete(Completed{ID: id, Reason: reason, Branches: t.branches})
	}
	t.reset(nextStart)
}

// OnBranch consumes one branch event. It records the event into the current
// signature (unless tracking boundaries only) and terminates the path when
// the paper's rules say so.
func (t *Tracker) OnBranch(ev vm.BranchEvent) {
	if !t.active {
		t.reset(ev.Target)
		return
	}
	if t.interner != nil {
		// Record the event into the signature.
		switch ev.Kind {
		case isa.KindCond:
			t.sig.CondBit(ev.Taken)
		case isa.KindIndirect, isa.KindCallInd:
			t.sig.Indirect(ev.Target)
		}
	}
	t.branches++

	// Termination rules, in priority order.
	switch {
	case ev.Backward:
		t.complete(EndBackward, ev.Target)
		return
	case ev.Kind == isa.KindReturn:
		if t.depth > 0 {
			// Return matching a forward call on this path.
			t.complete(EndMatchedReturn, ev.Target)
			return
		}
		// Forward return out of the function the path started in: the path
		// extends across it.
	case ev.Kind == isa.KindCall || ev.Kind == isa.KindCallInd:
		t.depth++
	}
	max := t.MaxBranches
	if max <= 0 {
		max = DefaultMaxBranches
	}
	if t.branches >= max {
		t.complete(EndCap, ev.Target)
	}
}

// Restart silently abandons the path in flight and begins a new path at
// startAddr. The Dynamo simulation uses this when control enters or leaves
// the fragment cache, where the abandoned prefix was executed from cache and
// must not be profiled.
func (t *Tracker) Restart(startAddr int) {
	t.reset(startAddr)
}

// Finish reports the trailing partial path (with EndProgram) if it recorded
// any events; call it once after the program halts.
func (t *Tracker) Finish() {
	if t.active && t.branches > 0 {
		t.complete(EndProgram, t.start)
	}
	t.active = false
}
