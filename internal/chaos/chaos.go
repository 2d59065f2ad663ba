// Package chaos implements a deterministic, seeded, replayable fault
// injector for hardening the VM → Dynamo → predictor stack. An Injector
// produces a schedule of fault events — machine traps, trace-recording
// aborts, fragment-execution aborts, counter corruption, and selection
// spikes — and feeds them into the existing seams: the dynamo.Config Chaos
// field, and, for a plain machine, the vm.Machine fault hook.
//
// Determinism is the point: an injector built from the same seed and rates
// (or the same explicit schedule) fires the identical events at the
// identical machine step counts on every run, so any failure it provokes
// replays exactly. Soft faults (recording/fragment aborts, corruption,
// spikes) perturb only the optimizer's bookkeeping, never the machine, so a
// chaos-ridden mini-Dynamo run must still compute the same final machine
// state as plain interpretation; the property tests assert exactly that.
package chaos

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"netpath/internal/vm"
)

// Kind enumerates injectable fault kinds.
type Kind uint8

// Fault kinds.
const (
	// TrapOOBLoad forces a machine fault styled as an out-of-range load.
	TrapOOBLoad Kind = iota
	// TrapOOBStore forces a machine fault styled as an out-of-range store.
	TrapOOBStore
	// TrapBadIndirect forces a machine fault styled as an indirect jump to a
	// non-block target.
	TrapBadIndirect
	// TrapStackOverflow forces a machine fault styled as call-stack overflow.
	TrapStackOverflow
	// AbortRecording aborts the trace recording (or path capture) in flight.
	AbortRecording
	// AbortFragment aborts the fragment execution in flight.
	AbortFragment
	// CorruptCounter adds Arg (possibly negative) to a live profiling
	// counter.
	CorruptCounter
	// SpikeSelect forces the next Arg trace selections regardless of
	// counter state, spiking the fragment-creation rate (phase-flush
	// exercise).
	SpikeSelect

	// NumKinds is the number of fault kinds.
	NumKinds
)

var kindNames = [...]string{
	"trap-oob-load", "trap-oob-store", "trap-bad-indirect", "trap-stack-overflow",
	"abort-recording", "abort-fragment", "corrupt-counter", "spike-select",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one scheduled fault: Kind fires at the first integration-point
// query at or after machine step Step. Arg is kind-specific (CorruptCounter:
// the delta; SpikeSelect: the burst length).
type Event struct {
	Step int64
	Kind Kind
	Arg  int64
}

// Rates parameterizes a randomly scheduled injector. All rates are expected
// events per million machine steps; zero disables that kind.
type Rates struct {
	TrapPerM        float64 // machine traps, split evenly over the 4 trap kinds
	RecordAbortPerM float64
	FragAbortPerM   float64
	CorruptPerM     float64
	SpikePerM       float64

	// SpikeLen is the forced-selection burst length per SpikeSelect event
	// (default 32).
	SpikeLen int64
	// CorruptMag is the corruption magnitude; each CorruptCounter event adds
	// ±CorruptMag, sign chosen by the seeded RNG (default 1<<30, i.e.
	// saturate the counter or wipe it out).
	CorruptMag int64
}

// Scaled returns r with every rate multiplied by f.
func (r Rates) Scaled(f float64) Rates {
	r.TrapPerM *= f
	r.RecordAbortPerM *= f
	r.FragAbortPerM *= f
	r.CorruptPerM *= f
	r.SpikePerM *= f
	return r
}

// stream produces the firing steps of one fault kind.
type stream struct {
	// Schedule mode.
	events []Event
	pos    int

	// Random mode.
	r      *rand.Rand
	seed   int64
	mean   float64 // mean steps between events; 0 = never fires
	next   int64
	newArg func(*rand.Rand) int64
}

// due pops at most one event due at or before step.
func (s *stream) due(step int64) (int64, bool) {
	if s.events != nil {
		if s.pos < len(s.events) && s.events[s.pos].Step <= step {
			a := s.events[s.pos].Arg
			s.pos++
			return a, true
		}
		return 0, false
	}
	if s.mean <= 0 || step < s.next {
		return 0, false
	}
	var arg int64
	if s.newArg != nil {
		arg = s.newArg(s.r)
	}
	s.next = step + s.gap()
	return arg, true
}

// nextStep returns the smallest step at which due can fire (math.MaxInt64
// if it never will); due at any smaller step is a no-op.
func (s *stream) nextStep() int64 {
	if s.events == nil {
		return s.next
	}
	if s.pos < len(s.events) {
		return s.events[s.pos].Step
	}
	return math.MaxInt64
}

func (s *stream) gap() int64 {
	return 1 + int64(s.r.ExpFloat64()*s.mean)
}

func (s *stream) reset() {
	s.pos = 0
	if s.r != nil {
		s.r = rand.New(rand.NewSource(s.seed))
		s.next = s.gap()
	}
}

// Injector is a replayable fault event source. It implements the
// dynamo.Injector seam and provides a vm.FaultHook for a plain machine; the
// zero value is not usable — build one with NewSchedule or NewRandom.
type Injector struct {
	streams   [NumKinds]stream
	fired     [NumKinds]int64
	spikeLeft int64
}

// NewSchedule builds an injector over an explicit event schedule. Events
// are processed per kind in ascending Step order (the slice is copied and
// sorted; ties keep input order).
func NewSchedule(events []Event) *Injector {
	in := &Injector{}
	byKind := make([][]Event, NumKinds)
	for _, ev := range events {
		if ev.Kind < NumKinds {
			byKind[ev.Kind] = append(byKind[ev.Kind], ev)
		}
	}
	for k, evs := range byKind {
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].Step < evs[j].Step })
		in.streams[k].events = evs
	}
	// Kinds with no events get a non-nil empty slice so due() takes the
	// schedule path.
	for k := range in.streams {
		if in.streams[k].events == nil {
			in.streams[k].events = []Event{}
		}
	}
	return in
}

// NewRandom builds an injector whose schedule is drawn from seeded
// exponential inter-arrival times at the given rates. The same (seed,
// rates) pair always yields the identical schedule.
func NewRandom(seed int64, rates Rates) *Injector {
	if rates.SpikeLen <= 0 {
		rates.SpikeLen = 32
	}
	if rates.CorruptMag <= 0 {
		rates.CorruptMag = 1 << 30
	}
	in := &Injector{}
	perM := [NumKinds]float64{
		TrapOOBLoad:       rates.TrapPerM / 4,
		TrapOOBStore:      rates.TrapPerM / 4,
		TrapBadIndirect:   rates.TrapPerM / 4,
		TrapStackOverflow: rates.TrapPerM / 4,
		AbortRecording:    rates.RecordAbortPerM,
		AbortFragment:     rates.FragAbortPerM,
		CorruptCounter:    rates.CorruptPerM,
		SpikeSelect:       rates.SpikePerM,
	}
	for k := Kind(0); k < NumKinds; k++ {
		s := &in.streams[k]
		if perM[k] <= 0 {
			s.events = []Event{}
			continue
		}
		s.seed = seed*int64(NumKinds) + int64(k) + 1
		s.r = rand.New(rand.NewSource(s.seed))
		s.mean = 1e6 / perM[k]
		switch k {
		case CorruptCounter:
			mag := rates.CorruptMag
			s.newArg = func(r *rand.Rand) int64 {
				if r.Intn(2) == 0 {
					return mag
				}
				return -mag
			}
		case SpikeSelect:
			n := rates.SpikeLen
			s.newArg = func(*rand.Rand) int64 { return n }
		}
		s.next = s.gap()
	}
	return in
}

// Reset rewinds the injector to its initial state so the identical schedule
// replays.
func (in *Injector) Reset() {
	for k := range in.streams {
		in.streams[k].reset()
		in.fired[k] = 0
	}
	in.spikeLeft = 0
}

// Fired returns how many events of kind k have fired.
func (in *Injector) Fired(k Kind) int64 { return in.fired[k] }

// TotalFired returns the total number of fired events.
func (in *Injector) TotalFired() int64 {
	var n int64
	for _, f := range in.fired {
		n += f
	}
	return n
}

func (in *Injector) take(k Kind, step int64) (int64, bool) {
	arg, ok := in.streams[k].due(step)
	if ok {
		in.fired[k]++
	}
	return arg, ok
}

// Trap returns the machine fault due before the instruction at pc executes
// as machine step step+1, or nil: the first due trap kind fires, and the
// others wait for the next poll.
func (in *Injector) Trap(step int64, pc int) error {
	for _, k := range [...]Kind{TrapOOBLoad, TrapOOBStore, TrapBadIndirect, TrapStackOverflow} {
		if _, ok := in.take(k, step); ok {
			return &vm.Fault{
				Kind: vm.FaultInjected,
				PC:   pc,
				Msg:  fmt.Sprintf("vm: injected %v at pc %d (step %d)", k, pc, step),
			}
		}
	}
	return nil
}

// Next returns the smallest step at which Trap (trap) and AbortRecording or
// AbortFragment (abort) can next fire; a poll at any smaller step is a
// no-op, so a caller may run the machine up to that step without polling.
// A stream that will never fire reports math.MaxInt64.
func (in *Injector) Next() (trap, abort int64) {
	s := &in.streams
	return min(s[TrapOOBLoad].nextStep(), s[TrapOOBStore].nextStep(), s[TrapBadIndirect].nextStep(), s[TrapStackOverflow].nextStep()),
		min(s[AbortRecording].nextStep(), s[AbortFragment].nextStep())
}

// VMFault implements the vm.FaultHook seam for a plain machine: it fires
// any due trap event as a machine fault at the current PC. Attach with
// m.SetFaultHook(in.VMFault). The fault is deterministic in m.Steps, so the
// same injector schedule trips the plain VM and the mini-Dynamo (which
// polls Trap at the same steps) at the same instruction.
func (in *Injector) VMFault(m *vm.Machine) error {
	return in.Trap(m.Steps, m.PC)
}

// AbortRecording reports whether the trace recording in flight should abort
// at this step.
func (in *Injector) AbortRecording(step int64) bool {
	_, ok := in.take(AbortRecording, step)
	return ok
}

// AbortFragment reports whether the fragment execution in flight should
// abort at this step.
func (in *Injector) AbortFragment(step int64) bool {
	_, ok := in.take(AbortFragment, step)
	return ok
}

// CorruptCounter reports a counter-corruption delta due at this step.
func (in *Injector) CorruptCounter(step int64) (int64, bool) {
	return in.take(CorruptCounter, step)
}

// SpikeSelect reports whether a forced trace selection is due at this step.
// A SpikeSelect event with Arg=n makes the next n queries return true.
func (in *Injector) SpikeSelect(step int64) bool {
	if arg, ok := in.take(SpikeSelect, step); ok {
		in.spikeLeft += arg
	}
	if in.spikeLeft > 0 {
		in.spikeLeft--
		return true
	}
	return false
}
