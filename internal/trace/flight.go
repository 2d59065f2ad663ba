// The black-box flight recorder: a bounded per-tenant ring of recent phase
// records that keeps writing through normal traffic and is frozen — copied
// into a bounded dump list — the moment a run faults, bails, deopt-storms,
// or is shed. Dumps survive until the drain snapshot or /debug/flight reads
// them, so the record of what a tenant was doing just before an incident is
// available even when the incident itself was never head-sampled.
package trace

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// FlightSchema identifies the flight-recorder wire document.
const FlightSchema = "netpath-flight/v1"

// Record is one flight-ring entry: a compressed span (phase + timing) tagged
// with the trace ID of the run that produced it, so a frozen dump can be
// joined back to full traces in the LRU.
type Record struct {
	TraceID     ID
	Kind        SpanKind
	StartUnixNS int64
	DurNS       int64
	Site        int32
	Arg         int64
	Outcome     string // terminal error code for request records, "" otherwise
}

// Dump is a frozen flight ring: the last perTenant records of one tenant at
// the moment of an incident, oldest first.
type Dump struct {
	Tenant       string      `json:"tenant"`
	Reason       string      `json:"reason"`
	TraceID      string      `json:"trace_id"`
	FrozenUnixNS int64       `json:"frozen_unix_ns"`
	Records      []RecordDoc `json:"records"`
}

// RecordDoc is the wire form of a flight record.
type RecordDoc struct {
	TraceID     string `json:"trace_id"`
	Kind        string `json:"kind"`
	StartUnixNS int64  `json:"start_unix_ns"`
	DurNS       int64  `json:"dur_ns"`
	Site        int32  `json:"site,omitempty"`
	Arg         int64  `json:"arg,omitempty"`
	Outcome     string `json:"outcome,omitempty"`
}

// FlightDoc is the wire form of the whole recorder (schema netpath-flight/v1).
type FlightDoc struct {
	Schema  string  `json:"schema"`
	Freezes int64   `json:"freezes"`
	Dumps   []*Dump `json:"dumps"`
}

type flightRing struct {
	recs []Record // fixed length = capacity; next indexes the write cursor
	next uint64   // total records ever written; next%len is the slot
}

// Flight is the recorder. All methods are mutex-guarded: records arrive at
// request rate (a handful per run), far too cold to need anything lock-free.
type Flight struct {
	mu         sync.Mutex
	perTenant  int
	maxTenants int
	maxDumps   int
	rings      map[string]*flightRing
	order      []string // tenant insertion order, for FIFO eviction
	dumps      []*Dump  // newest last; bounded at maxDumps
	freezes    int64
}

// NewFlight builds a recorder keeping perTenant records per tenant and at
// most maxDumps frozen dumps. perTenant <= 0 disables the recorder — a nil
// *Flight is returned and, as with *Trace, every method on it is a no-op.
func NewFlight(perTenant, maxDumps int) *Flight {
	if perTenant <= 0 {
		return nil
	}
	if maxDumps <= 0 {
		maxDumps = 16
	}
	return &Flight{
		perTenant:  perTenant,
		maxTenants: 256,
		maxDumps:   maxDumps,
		rings:      make(map[string]*flightRing),
	}
}

func (f *Flight) ring(tenant string) *flightRing {
	r := f.rings[tenant]
	if r == nil {
		if len(f.order) >= f.maxTenants { // evict the oldest tenant's ring
			delete(f.rings, f.order[0])
			f.order = f.order[1:]
		}
		r = &flightRing{recs: make([]Record, f.perTenant)}
		f.rings[tenant] = r
		f.order = append(f.order, tenant)
	}
	return r
}

// Note appends a record to the tenant's ring, overwriting the oldest.
func (f *Flight) Note(tenant string, rec Record) {
	if f == nil {
		return
	}
	f.mu.Lock()
	r := f.ring(tenant)
	r.recs[r.next%uint64(len(r.recs))] = rec
	r.next++
	f.mu.Unlock()
}

// Freeze snapshots the tenant's ring into a dump tagged with the incident
// reason and trace ID. The dump list is FIFO-bounded; freezing never blocks
// recording for other tenants longer than the copy.
func (f *Flight) Freeze(tenant, reason string, id ID) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.freezes++
	r := f.rings[tenant]
	if r == nil {
		return
	}
	n := uint64(len(r.recs))
	start := uint64(0)
	if r.next > n {
		start = r.next - n
	}
	d := &Dump{
		Tenant:       tenant,
		Reason:       reason,
		TraceID:      id.String(),
		FrozenUnixNS: time.Now().UnixNano(),
	}
	for i := start; i < r.next; i++ {
		rec := r.recs[i%n]
		d.Records = append(d.Records, RecordDoc{
			TraceID: rec.TraceID.String(), Kind: rec.Kind.String(),
			StartUnixNS: rec.StartUnixNS, DurNS: rec.DurNS,
			Site: rec.Site, Arg: rec.Arg, Outcome: rec.Outcome,
		})
	}
	f.dumps = append(f.dumps, d)
	if len(f.dumps) > f.maxDumps {
		f.dumps = f.dumps[len(f.dumps)-f.maxDumps:]
	}
}

// Freezes returns the total number of freezes since start.
func (f *Flight) Freezes() int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.freezes
}

// Doc snapshots the recorder into its wire form, newest dump first.
func (f *Flight) Doc() *FlightDoc {
	d := &FlightDoc{Schema: FlightSchema}
	if f == nil {
		return d
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	d.Freezes = f.freezes
	d.Dumps = make([]*Dump, len(f.dumps))
	copy(d.Dumps, f.dumps)
	sort.SliceStable(d.Dumps, func(i, j int) bool {
		return d.Dumps[i].FrozenUnixNS > d.Dumps[j].FrozenUnixNS
	})
	return d
}

// Encode writes the recorder document as JSON.
func (d *FlightDoc) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}
