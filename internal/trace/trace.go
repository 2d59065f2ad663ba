// Package trace is the request-scoped span layer of the translation
// pipeline: a per-run tree of phase spans (admission → queue-wait → verify →
// snapshot-restore → execute → trace-select → fragment-emit → tier-2 →
// merge-back) recorded into a preallocated arena, plus a per-tenant
// black-box flight recorder that freezes recent history on faults, bails,
// deopts, and sheds.
//
// The layer is built around one invariant, shared with internal/telemetry:
// the cost of NOT tracing is a nil check. A sampled-out run carries a nil
// *Trace; every method on *Trace is nil-safe and performs zero allocations
// and zero clock reads on a nil receiver (pinned by the alloc gate in the
// repo root). A sampled-in run writes fixed-size Span records into an arena
// allocated once at admission, so the write path never allocates either —
// the arena is the allocation.
//
// Writers and readers share a mutex rather than a seqlock: span writes are
// per-phase (tens per request), not per-instruction, so a mutex is far below
// the noise floor, and it lets late spans — a tier-2 compile that finishes
// after the response was sent — land in a trace that is already published to
// the LRU and visible to /v1/trace/{id} readers.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"sync"
	"time"
)

// Schema identifies the trace wire document.
const Schema = "netpath-trace/v1"

// ID is a 128-bit trace identifier, rendered as 32 lowercase hex digits
// (the W3C trace-context trace-id field).
type ID struct {
	Hi, Lo uint64
}

// IsZero reports whether the ID is the invalid all-zero ID.
func (id ID) IsZero() bool { return id.Hi == 0 && id.Lo == 0 }

// String renders the ID as 32 lowercase hex digits.
func (id ID) String() string { return fmt.Sprintf("%016x%016x", id.Hi, id.Lo) }

// NewID returns a fresh random non-zero trace ID.
func NewID() ID {
	for {
		id := ID{Hi: rand.Uint64(), Lo: rand.Uint64()}
		if !id.IsZero() {
			return id
		}
	}
}

// ParseID parses 32 hex digits into an ID. The all-zero ID is invalid.
func ParseID(s string) (ID, bool) {
	if len(s) != 32 {
		return ID{}, false
	}
	hi, ok1 := parseHex64(s[:16])
	lo, ok2 := parseHex64(s[16:])
	id := ID{Hi: hi, Lo: lo}
	if !ok1 || !ok2 || id.IsZero() {
		return ID{}, false
	}
	return id, true
}

func parseHex64(s string) (uint64, bool) {
	var v uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		default:
			return 0, false
		}
		v = v<<4 | d
	}
	return v, true
}

// Parent is a parsed traceparent header: the caller's trace ID, its span ID
// (propagated but not re-parented — netpath runs are roots of their own
// trees), and whether the caller asked for sampling.
type Parent struct {
	ID      ID
	Span    uint64
	Sampled bool
}

// ParseTraceparent parses a W3C-style "00-<32hex>-<16hex>-<2hex>" header.
// Unknown versions and malformed fields are rejected rather than guessed at.
func ParseTraceparent(h string) (Parent, bool) {
	if len(h) != 55 || h[0] != '0' || h[1] != '0' || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return Parent{}, false
	}
	id, ok := ParseID(h[3:35])
	if !ok {
		return Parent{}, false
	}
	span, ok := parseHex64(h[36:52])
	if !ok || span == 0 {
		return Parent{}, false
	}
	flags, ok := parseHex64(h[53:55])
	if !ok {
		return Parent{}, false
	}
	return Parent{ID: id, Span: span, Sampled: flags&1 != 0}, true
}

// Traceparent renders a response header for the given trace: our runs are
// roots, so the span-id field carries the fixed root span 1.
func Traceparent(id ID, sampled bool) string {
	flags := "00"
	if sampled {
		flags = "01"
	}
	return fmt.Sprintf("00-%s-0000000000000001-%s", id, flags)
}

// SpanKind names a pipeline phase. The enum is wire-stable: kinds are
// marshalled by name, and new kinds append.
type SpanKind uint8

// Pipeline phase kinds, in rough pipeline order.
const (
	SpanRequest      SpanKind = iota // whole request, the tree root
	SpanAdmission                    // decode + validate + rate/quota checks
	SpanVerify                       // assemble/decode + static CFG verification; site 1 = program-cache hit (neither ran)
	SpanQueueWait                    // admission enqueue → worker dequeue
	SpanRestore                      // snapshot restore into the fragment cache
	SpanExecute                      // guest execution (interp or dynamo)
	SpanTraceSelect                  // NET/PP recording: head promotion → trace end
	SpanFragEmit                     // fragment optimize + install (instant)
	SpanTier2Enqueue                 // superblock job accepted by the compiler
	SpanTier2Compile                 // background superblock compilation
	SpanPromote                      // compiled superblock published (instant)
	SpanTier2Deopt                   // superblock guard failure demoted tier 2
	SpanMergeBack                    // run profile merged into the snapshot store
	SpanFault                        // guest fault delivered (instant)
	SpanBail                         // translation bail-out (instant)
	NumSpanKinds     int      = iota
)

var spanKindNames = [NumSpanKinds]string{
	"request", "admission", "verify", "queue-wait", "snapshot-restore",
	"execute", "trace-select", "fragment-emit", "tier2-enqueue",
	"tier2-compile", "tier2-promote", "tier2-deopt", "snapshot-merge",
	"fault", "bail",
}

// String returns the wire name of the kind.
func (k SpanKind) String() string {
	if int(k) < NumSpanKinds {
		return spanKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Span is one node of a trace tree: fixed-size, value-typed, arena-resident.
// Times are nanosecond offsets from the trace start. Site and Arg carry
// kind-specific detail (typically a guest PC and a count).
type Span struct {
	ID     int32
	Parent int32 // -1 for the root
	Kind   SpanKind
	Start  int64
	End    int64
	Site   int32
	Arg    int64
}

// NoSpan is the parent of the root span and the ID returned by writes to a
// nil or full trace; every write method accepts it and does nothing.
const NoSpan int32 = -1

// Trace is a preallocated per-run span arena. A nil *Trace is the sampled-
// out state: every method is nil-safe, free, and allocation-free. Methods
// are safe for concurrent use — background tier-2 workers append late spans
// while HTTP readers render the tree.
type Trace struct {
	mu      sync.Mutex
	id      ID
	tenant  string
	wall    time.Time // wall clock at trace start (offsets anchor here)
	spans   []Span    // len grows into the fixed cap set at New
	dropped int32
	err     string
	tail    bool
}

// New allocates a trace arena with room for maxSpans spans. start anchors
// all span offsets; it must carry a monotonic reading (i.e. come from
// time.Now). This is the only allocation the trace ever performs.
func New(id ID, tenant string, maxSpans int, start time.Time) *Trace {
	if maxSpans < 4 {
		maxSpans = 4
	}
	return &Trace{
		id:     id,
		tenant: tenant,
		wall:   start,
		spans:  make([]Span, 0, maxSpans),
	}
}

// TraceID returns the trace's ID (zero for nil).
func (t *Trace) TraceID() ID {
	if t == nil {
		return ID{}
	}
	return t.id
}

// Now returns the current offset in nanoseconds since the trace start, or 0
// for a nil trace — sampled-out runs never read the clock.
func (t *Trace) Now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.wall))
}

// Begin opens a span now and returns its ID, or NoSpan if the trace is nil
// or the arena is full (the drop is counted, never reallocated around).
func (t *Trace) Begin(kind SpanKind, parent int32, site int32, arg int64) int32 {
	if t == nil {
		return NoSpan
	}
	now := t.Now()
	return t.Add(kind, parent, now, 0, site, arg)
}

// End closes an open span at the current offset. NoSpan is ignored.
func (t *Trace) End(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := t.Now()
	t.mu.Lock()
	if int(id) < len(t.spans) {
		t.spans[id].End = now
	}
	t.mu.Unlock()
}

// EndAt closes an open span at an explicit offset — for callers that measure
// time with an injected clock rather than the trace's own. NoSpan is ignored.
func (t *Trace) EndAt(id int32, end int64) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	if int(id) < len(t.spans) {
		t.spans[id].End = end
	}
	t.mu.Unlock()
}

// Add records a span with explicit start/end offsets (end 0 = still open;
// use start for both to record an instant event). It returns the span ID,
// or NoSpan if the trace is nil or full.
func (t *Trace) Add(kind SpanKind, parent int32, start, end int64, site int32, arg int64) int32 {
	if t == nil {
		return NoSpan
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return NoSpan
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Kind: kind,
		Start: start, End: end, Site: site, Arg: arg,
	})
	return id
}

// SetArg updates an open span's site/arg detail in place. NoSpan is ignored.
func (t *Trace) SetArg(id int32, site int32, arg int64) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	if int(id) < len(t.spans) {
		t.spans[id].Site = site
		t.spans[id].Arg = arg
	}
	t.mu.Unlock()
}

// SetErr records the request's terminal error code ("" = success).
func (t *Trace) SetErr(code string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.err = code
	t.mu.Unlock()
}

// MarkTail flags the trace as tail-promoted: retained because the run
// errored or deopted, not because head sampling chose it, so only the
// server-level skeleton spans are present.
func (t *Trace) MarkTail() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.tail = true
	t.mu.Unlock()
}

// Doc is the wire form of a trace (schema netpath-trace/v1).
type Doc struct {
	Schema       string    `json:"schema"`
	TraceID      string    `json:"trace_id"`
	Tenant       string    `json:"tenant"`
	StartUnixNS  int64     `json:"start_unix_ns"`
	DurNS        int64     `json:"dur_ns"`
	Err          string    `json:"error,omitempty"`
	TailPromoted bool      `json:"tail_promoted,omitempty"`
	Dropped      int32     `json:"dropped_spans,omitempty"`
	Spans        []SpanDoc `json:"spans"`
}

// SpanDoc is the wire form of one span.
type SpanDoc struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	Kind    string `json:"kind"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Site    int32  `json:"site,omitempty"`
	Arg     int64  `json:"arg,omitempty"`
}

// Doc snapshots the trace into its wire form. Open spans are closed at the
// snapshot instant so the document is always well-formed.
func (t *Trace) Doc() *Doc {
	if t == nil {
		return nil
	}
	now := t.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	d := &Doc{
		Schema:       Schema,
		TraceID:      t.id.String(),
		Tenant:       t.tenant,
		StartUnixNS:  t.wall.UnixNano(),
		Err:          t.err,
		TailPromoted: t.tail,
		Dropped:      t.dropped,
		Spans:        make([]SpanDoc, len(t.spans)),
	}
	for i, s := range t.spans {
		end := s.End
		if end == 0 { // still open — close at the snapshot instant
			end = now
		}
		if end < s.Start {
			end = s.Start
		}
		d.Spans[i] = SpanDoc{
			ID: s.ID, Parent: s.Parent, Kind: s.Kind.String(),
			StartNS: s.Start, EndNS: end, Site: s.Site, Arg: s.Arg,
		}
		if d.Spans[i].EndNS > d.DurNS {
			d.DurNS = d.Spans[i].EndNS
		}
	}
	return d
}

// Encode writes the trace document as JSON.
func (d *Doc) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// DecodeDoc reads and validates a netpath-trace/v1 document.
func DecodeDoc(r io.Reader) (*Doc, error) {
	var d Doc
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	if d.Schema != Schema {
		return nil, fmt.Errorf("trace: schema %q, want %q", d.Schema, Schema)
	}
	for i := range d.Spans {
		s := &d.Spans[i]
		if s.Parent >= int32(len(d.Spans)) || (s.Parent < 0 && s.Parent != NoSpan) {
			return nil, fmt.Errorf("trace: span %d: parent %d out of range", s.ID, s.Parent)
		}
		if s.EndNS < s.StartNS {
			return nil, fmt.Errorf("trace: span %d: end %d before start %d", s.ID, s.EndNS, s.StartNS)
		}
	}
	return &d, nil
}
