// Package server is netpathd's engine room: a hardened multi-tenant
// translation service over the VM → NET → fragment-cache stack. Guests
// arrive over HTTP, pass the static verifier, wait in a bounded
// per-tenant-fair admission queue, and execute on a resident worker pool
// under per-tenant step/deadline/table budgets. The failure philosophy is
// the paper's "less is more" applied to robustness: every failure mode has
// one typed, bounded response — shed early (503 + Retry-After), preempt
// cooperatively (408), degrade to interpretation under sustained overload,
// and drain cleanly on shutdown. A guest can be slow, hostile, or unlucky;
// the process stays up and the other tenants keep their shares.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math/rand/v2"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"netpath/internal/dynamo"
	"netpath/internal/par"
	"netpath/internal/telemetry"
	"netpath/internal/trace"
)

// Degradation ladder levels.
const (
	degradeNormal     = 0 // full NET translation
	degradeInterpOnly = 1 // interpretation only: no profiling, no fragment pressure
)

// Config tunes the server. Zero fields take defaults.
type Config struct {
	// Workers is the resident worker pool width (0 = par.Workers()).
	Workers int
	// QueueDepth bounds total buffered guests; QueueDepthPerTenant bounds
	// one tenant's share of the buffer.
	QueueDepth          int
	QueueDepthPerTenant int
	// MaxTenants bounds the tenant table.
	MaxTenants int
	// RatePerSec and Burst configure the per-tenant token bucket
	// (RatePerSec <= 0 disables rate limiting).
	RatePerSec float64
	Burst      float64
	// Quotas are the per-tenant resource ceilings.
	Quotas Quotas
	// Tables is the global fragment/head/path table budget divided among
	// active tenants; SharedTables grants every tenant the full budget
	// instead (the throughput-over-isolation configuration).
	Tables       dynamo.TableBudget
	SharedTables bool

	// Tier2 turns on background superblock compilation: hot fragments are
	// promoted onto a bounded compile queue shared by all tenants
	// (round-robin, so one tenant's hot loop cannot monopolize it) and
	// executed as fused superblocks once published. Tier2Workers and
	// Tier2Queue size the compile pool (defaults: 1 worker, 64 jobs);
	// Tier2Threshold is the completions-per-fragment promotion bar
	// (default: the dynamo package's).
	Tier2          bool
	Tier2Workers   int
	Tier2Queue     int
	Tier2Threshold int64

	// SnapshotLimit enables the persistent-profile store: completed runs
	// merge their profile into a bounded per-(tenant, program, scheme) store
	// and later runs of the same key warm-start from it. The value bounds
	// the number of distinct stored profiles (FIFO eviction); 0 disables the
	// store entirely (the default — warm-starting trades memory for
	// cold-start latency, and the operator opts in).
	SnapshotLimit int

	// TripSheds sheds within TripWindow trip the ladder to interp-only;
	// CoolOff without a shed recovers it.
	TripSheds  int
	TripWindow time.Duration
	CoolOff    time.Duration

	// TraceStore turns on request-scoped tracing: up to TraceStore completed
	// traces are retained in an LRU served by GET /v1/trace/{id} (0 disables
	// tracing entirely — every pipeline site then sees a nil *trace.Trace,
	// one nil check, zero allocations). TraceSample is the head-sampling
	// probability in [0,1] applied per request; callers whose traceparent
	// header sets the sampled flag are always sampled. Regardless of the
	// coin, runs that end in an error, a bail-out, or a tier-2 deopt are
	// tail-promoted with their server-level skeleton spans. TraceSpans caps
	// the per-trace span arena (default 256).
	TraceStore  int
	TraceSample float64
	TraceSpans  int
	// FlightRecords turns on the black-box flight recorder: a per-tenant
	// ring of the last FlightRecords run records, frozen into a bounded dump
	// list (FlightDumps, default 16) on guest faults, bail-outs, tier-2
	// deopts, and load sheds, served by GET /debug/flight (0 disables).
	FlightRecords int
	FlightDumps   int
	// TraceRand draws the sampling coin in [0,1) (nil = math/rand; tests
	// inject a deterministic source).
	TraceRand func() float64

	// Registry receives telemetry (nil = telemetry.Def).
	Registry *telemetry.Registry
	// Logf logs server-side events (nil = log.Printf).
	Logf func(format string, args ...any)
	// Now is the clock (nil = time.Now); tests inject a fake.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = par.Workers()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.QueueDepthPerTenant <= 0 {
		c.QueueDepthPerTenant = (c.QueueDepth + 3) / 4
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = 256
	}
	if c.Burst <= 0 {
		c.Burst = 10
	}
	if c.Quotas == (Quotas{}) {
		c.Quotas = DefaultQuotas()
	} else {
		c.Quotas = c.Quotas.withDefaults()
	}
	if c.Tables == (dynamo.TableBudget{}) {
		c.Tables = dynamo.DefaultTableBudget()
	}
	if c.TripSheds <= 0 {
		c.TripSheds = 16
	}
	if c.TripWindow <= 0 {
		c.TripWindow = 5 * time.Second
	}
	if c.CoolOff <= 0 {
		c.CoolOff = 10 * time.Second
	}
	if c.TraceSpans <= 0 {
		c.TraceSpans = 256
	}
	if c.TraceSample < 0 {
		c.TraceSample = 0
	}
	if c.TraceSample > 1 {
		c.TraceSample = 1
	}
	if c.TraceRand == nil {
		c.TraceRand = rand.Float64
	}
	if c.Registry == nil {
		c.Registry = telemetry.Def
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Server is a running netpathd instance.
type Server struct {
	cfg     Config
	queue   *queue
	tenants *tenantSet
	shards  *dynamo.ShardSet
	tier2   *dynamo.Tier2Compiler
	progs   *progCache
	snaps   *snapStore    // nil when Config.SnapshotLimit == 0
	traces  *trace.Store  // nil when Config.TraceStore == 0
	flight  *trace.Flight // nil when Config.FlightRecords == 0
	pool    *par.Resident
	mux     *http.ServeMux
	sink    *telemetry.Sink

	inFlight atomic.Int64
	draining atomic.Bool

	// exemplars holds the most recently retained trace IDs for /statusz, so
	// an operator can jump from a status snapshot straight to a waterfall.
	exMu      sync.Mutex
	exemplars []string

	// Degradation ladder state. sheds holds recent shed times (bounded to
	// TripSheds); the ladder trips when TripSheds sheds land inside
	// TripWindow and recovers after CoolOff shed-free.
	ladderMu sync.Mutex
	level    atomic.Int32
	shedTs   []time.Time
	lastShed time.Time

	httpSrv *http.Server
	ln      net.Listener
}

// New builds a server (not yet listening; see Start, or use Handler directly
// in tests via httptest).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		queue:   newQueue(cfg.QueueDepth, cfg.QueueDepthPerTenant),
		tenants: newTenantSet(cfg.MaxTenants),
		shards:  dynamo.NewShardSet(cfg.Tables, cfg.SharedTables),
		progs:   newProgCache(),
		sink:    cfg.Registry.NewSink(),
	}
	if cfg.Tier2 {
		s.tier2 = dynamo.NewTier2Compiler(cfg.Tier2Workers, cfg.Tier2Queue)
		s.shards.SetTier2(s.tier2)
	}
	if cfg.SnapshotLimit > 0 {
		s.snaps = newSnapStore(cfg.SnapshotLimit)
	}
	s.traces = trace.NewStore(cfg.TraceStore)
	s.flight = trace.NewFlight(cfg.FlightRecords, cfg.FlightDumps)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("GET /v1/trace/{id}", s.handleTrace)
	s.mux.HandleFunc("GET /debug/flight", s.handleFlight)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /statusz", s.handleStatusz)
	cfg.Registry.RegisterOn(s.mux)
	s.pool = par.StartResident(cfg.Workers, func() (func(), bool) {
		j, ok := s.queue.dequeue()
		if !ok {
			return nil, false
		}
		return func() { s.runJob(j) }, true
	})
	return s
}

// Handler exposes the full mux (API + health + telemetry) for embedding and
// httptest.
func (s *Server) Handler() http.Handler { return s.mux }

// Start binds addr and serves in a background goroutine, returning the bound
// address (so ":0" callers can discover the port).
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s.ln = ln
	s.httpSrv = &http.Server{Handler: s.mux}
	go s.httpSrv.Serve(ln)
	return ln.Addr(), nil
}

// Shutdown drains the server: admission closes immediately (new submissions
// get typed 503 draining errors), buffered and in-flight guests run to
// completion, workers retire, the listener closes, and the final telemetry
// snapshot is flushed to w (nil skips the flush). ctx bounds the wait for
// in-flight guests; on expiry the HTTP server is torn down regardless.
func (s *Server) Shutdown(ctx context.Context, w interface{ Write([]byte) (int, error) }) error {
	s.draining.Store(true)
	s.queue.close()

	done := make(chan struct{})
	go func() { s.pool.Wait(); close(done) }()
	var drainErr error
	select {
	case <-done:
	case <-ctx.Done():
		drainErr = fmt.Errorf("server: drain interrupted: %w", context.Cause(ctx))
	}
	if s.tier2 != nil {
		// After the run workers drain: no mutator is left to observe a
		// late publication, and Close joins the compile workers.
		s.tier2.Close()
	}

	if s.httpSrv != nil {
		shCtx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		if err := s.httpSrv.Shutdown(shCtx); err != nil && drainErr == nil {
			drainErr = fmt.Errorf("server: http shutdown: %w", err)
		}
	}
	if w != nil {
		if err := s.cfg.Registry.WriteJSON(w); err != nil && drainErr == nil {
			drainErr = fmt.Errorf("server: snapshot flush: %w", err)
		}
	}
	return drainErr
}

func (s *Server) now() time.Time                  { return s.cfg.Now() }
func (s *Server) logf(format string, args ...any) { s.cfg.Logf(format, args...) }
func (s *Server) degradeLevel() int32             { return s.level.Load() }

// noteShed feeds the degradation ladder: sustained shedding means the
// machine cannot keep up with translation overhead on top of execution, so
// the server demotes itself to interpretation — serving every admitted guest
// slower beats serving none.
func (s *Server) noteShed() {
	now := s.now()
	s.ladderMu.Lock()
	defer s.ladderMu.Unlock()
	s.lastShed = now
	cutoff := now.Add(-s.cfg.TripWindow)
	ts := s.shedTs[:0]
	for _, t := range s.shedTs {
		if t.After(cutoff) {
			ts = append(ts, t)
		}
	}
	s.shedTs = append(ts, now)
	if len(s.shedTs) >= s.cfg.TripSheds && s.level.Load() == degradeNormal {
		s.level.Store(degradeInterpOnly)
		telDegradeLevel.Set(degradeInterpOnly)
		s.logf("degradation ladder tripped: %d sheds in %v; demoting to interpret-only",
			len(s.shedTs), s.cfg.TripWindow)
	}
}

// maybeRecover climbs back to normal after a shed-free cool-off. Called on
// the submission path so recovery needs no background ticker.
func (s *Server) maybeRecover() {
	if s.level.Load() == degradeNormal {
		return
	}
	now := s.now()
	s.ladderMu.Lock()
	defer s.ladderMu.Unlock()
	if s.level.Load() != degradeNormal && now.Sub(s.lastShed) > s.cfg.CoolOff {
		s.level.Store(degradeNormal)
		s.shedTs = s.shedTs[:0]
		telDegradeLevel.Set(degradeNormal)
		s.logf("degradation ladder recovered: %v shed-free; restoring translation", s.cfg.CoolOff)
	}
}

// handleRun is the submission path: read → decode (a cached prog document
// is hashed, not parsed) → tenant/rate gate → resolve (program cache hit,
// or parse + verify once; quotas always) → enqueue → wait → respond.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	telSubmits.Inc()
	s.maybeRecover()
	t0 := s.now()
	var parent trace.Parent
	if s.traces != nil {
		if h := r.Header.Get("traceparent"); h != "" {
			parent, _ = trace.ParseTraceparent(h)
		}
	}

	body := bodyPool.Get().(*bytes.Buffer)
	defer bodyPool.Put(body)
	body.Reset()
	if n := r.ContentLength; n > 0 && n <= s.cfg.Quotas.MaxBodyBytes {
		body.Grow(int(n) + bytes.MinRead) // ReadFrom grows when less than MinRead is spare
	}
	_, readErr := body.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.Quotas.MaxBodyBytes))
	req, apiErr := decodeRequest(body.Bytes(), readErr, s.progs)
	if apiErr != nil {
		telRejected.Inc()
		apiErr.write(w)
		return
	}

	tenant, ok := s.tenants.get(req.Tenant)
	if !ok {
		telRejected.Inc()
		errf(CodeQuota, http.StatusUnprocessableEntity,
			"tenant table full (%d tenants); no new tenants admitted", s.cfg.MaxTenants).write(w)
		return
	}
	tenant.submitted.Add(1)
	telTenants.Set(int64(s.tenants.count()))

	if allowed, wait := tenant.allow(s.cfg.RatePerSec, s.cfg.Burst, s.now()); !allowed {
		tenant.rateLimits.Add(1)
		telRateLimited.Inc()
		e := errf(CodeRateLimited, http.StatusTooManyRequests,
			"tenant %s rate limited; retry after %v", req.Tenant, wait.Round(time.Millisecond))
		e.RetryAfter = int(wait/time.Second) + 1
		e.write(w)
		return
	}

	admitEnd := s.now()
	hit, apiErr := req.resolve(s.cfg.Quotas, s.progs)
	if apiErr != nil {
		telRejected.Inc()
		apiErr.write(w)
		return
	}

	// One clock reading ends the verify phase and starts the queue wait, so
	// the two spans tile without overlap.
	verifyEnd := s.now()
	j := &job{
		tenant: req.Tenant, req: req, enqueued: verifyEnd,
		t0: t0, trRoot: trace.NoSpan, trExec: trace.NoSpan,
		done: make(chan struct{}),
	}
	if hit {
		j.verifySite = verifySiteHit
	}
	if s.traces != nil || s.flight != nil {
		j.admitEndNS = admitEnd.Sub(t0).Nanoseconds()
		j.verifyEndNS = verifyEnd.Sub(t0).Nanoseconds()
		j.traceID = parent.ID
		if j.traceID.IsZero() {
			j.traceID = trace.NewID()
		}
	}
	if s.traces != nil && (parent.Sampled || s.cfg.TraceRand() < s.cfg.TraceSample) {
		// Head-sampled: allocate the span arena now, so every later phase —
		// including the engine's — records into preallocated memory.
		j.tr = trace.New(j.traceID, j.tenant, s.cfg.TraceSpans, t0)
		j.trRoot = j.tr.Add(trace.SpanRequest, trace.NoSpan, 0, 0, 0, 0)
		j.tr.Add(trace.SpanAdmission, j.trRoot, 0, j.admitEndNS, 0, 0)
		j.tr.Add(trace.SpanVerify, j.trRoot, j.admitEndNS, j.verifyEndNS, j.verifySite,
			int64(len(req.program.Instrs)))
	}
	if apiErr := s.queue.enqueue(j); apiErr != nil {
		tenant.shed.Add(1)
		telShed.Inc()
		if apiErr.Code == CodeOverloaded {
			s.noteShed()
		}
		s.recordShed(w, j, apiErr)
		apiErr.write(w)
		return
	}
	tenant.admitted.Add(1)
	telAdmitted.Inc()
	telQueueDepth.Set(int64(s.queue.depth()))

	// Wait for the worker. The job always completes — deadlines preempt
	// runaway guests — so waiting without a select on r.Context() is safe;
	// a vanished client just gets its response written to a dead socket.
	<-j.done
	if j.retained {
		w.Header().Set("traceparent", trace.Traceparent(j.traceID, true))
	}
	if j.apiErr != nil {
		switch j.apiErr.Code {
		case CodeDeadline:
			tenant.deadlines.Add(1)
		case CodeGuestFault, CodeStepLimit:
			tenant.faults.Add(1)
		}
		j.apiErr.write(w)
		return
	}
	tenant.completed.Add(1)
	telCompleted.Inc()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(j.resp)
}

// recordShed settles observability for a run rejected at the queue: the
// tenant's flight ring freezes (a shed is an incident even though no guest
// ran) and, when tracing is on, a tail-promoted skeleton trace is retained so
// the rejection stays inspectable after the 503 is gone.
func (s *Server) recordShed(w http.ResponseWriter, j *job, e *apiError) {
	if s.flight != nil {
		s.flight.Note(j.tenant, trace.Record{
			TraceID: j.traceID, Kind: trace.SpanAdmission,
			StartUnixNS: j.t0.UnixNano(), DurNS: s.now().Sub(j.t0).Nanoseconds(),
			Outcome: string(e.Code),
		})
		s.flight.Freeze(j.tenant, "shed", j.traceID)
	}
	if s.traces == nil {
		return
	}
	tr := j.tr
	root := j.trRoot
	if tr == nil {
		tr = trace.New(j.traceID, j.tenant, 8, j.t0)
		root = tr.Add(trace.SpanRequest, trace.NoSpan, 0, 0, 0, 0)
		tr.Add(trace.SpanAdmission, root, 0, j.admitEndNS, 0, 0)
		tr.Add(trace.SpanVerify, root, j.admitEndNS, j.verifyEndNS, j.verifySite, 0)
		tr.MarkTail()
	}
	tr.EndAt(root, s.now().Sub(j.t0).Nanoseconds())
	tr.SetErr(string(e.Code))
	s.traces.Put(tr)
	s.noteExemplar(tr.TraceID())
	w.Header().Set("traceparent", trace.Traceparent(tr.TraceID(), true))
}

// noteExemplar keeps the last few retained trace IDs for /statusz.
const maxExemplars = 8

func (s *Server) noteExemplar(id trace.ID) {
	s.exMu.Lock()
	s.exemplars = append(s.exemplars, id.String())
	if len(s.exemplars) > maxExemplars {
		s.exemplars = s.exemplars[len(s.exemplars)-maxExemplars:]
	}
	s.exMu.Unlock()
}

func (s *Server) exemplarTraces() []string {
	s.exMu.Lock()
	defer s.exMu.Unlock()
	return append([]string(nil), s.exemplars...)
}

// handleTrace serves a retained trace document from the LRU.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.traces == nil {
		errf(CodeNotFound, http.StatusNotFound,
			"tracing disabled; start the server with a trace store").write(w)
		return
	}
	id, ok := trace.ParseID(r.PathValue("id"))
	if !ok {
		errf(CodeBadRequest, http.StatusBadRequest,
			"malformed trace id (want 32 hex digits)").write(w)
		return
	}
	t := s.traces.Get(id)
	if t == nil {
		errf(CodeNotFound, http.StatusNotFound,
			"trace %s not found (evicted, or the run was sampled out)", id).write(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	t.Doc().Encode(w)
}

// handleFlight serves the flight-recorder dumps (an empty document when the
// recorder is disabled — the endpoint shape stays stable either way).
func (s *Server) handleFlight(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.flight.Doc().Encode(w)
}

// FlightDoc snapshots the flight recorder (empty when disabled); the daemon's
// drain path writes it next to the telemetry snapshot.
func (s *Server) FlightDoc() *trace.FlightDoc { return s.flight.Doc() }

// handleHealthz: liveness — the process is up and the mux is serving.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte("ok\n"))
}

// readyzDoc is the typed /readyz body: load balancers key on the status
// code, operators and scripts on the state string.
type readyzDoc struct {
	Ready        bool   `json:"ready"`
	State        string `json:"state"` // "ready", "draining", "degraded-interp-only"
	DegradeLevel int32  `json:"degrade_level"`
}

// handleReadyz: readiness — admitting new guests at full service. Draining
// flips it so load balancers stop routing here before the listener closes;
// so does interp-only degradation: a balancer with healthy peers should route
// around a degraded instance, which keeps serving whatever still arrives.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	d := readyzDoc{Ready: true, State: "ready", DegradeLevel: s.degradeLevel()}
	switch {
	case s.draining.Load():
		d.Ready, d.State = false, "draining"
	case d.DegradeLevel >= degradeInterpOnly:
		d.Ready, d.State = false, "degraded-interp-only"
	}
	if !d.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(d)
}

// statuszTenant is one tenant's row in the /statusz document.
type statuszTenant struct {
	Name       string `json:"name"`
	Submitted  int64  `json:"submitted"`
	Admitted   int64  `json:"admitted"`
	Completed  int64  `json:"completed"`
	Shed       int64  `json:"shed"`
	RateLimits int64  `json:"rate_limited"`
	Faults     int64  `json:"faults"`
	Deadlines  int64  `json:"deadlines"`
}

// statuszDoc is the /statusz JSON document.
type statuszDoc struct {
	Draining       bool  `json:"draining"`
	DegradeLevel   int32 `json:"degrade_level"`
	QueueDepth     int   `json:"queue_depth"`
	QueueHighWater int   `json:"queue_high_water"`
	Sheds          int64 `json:"sheds"`
	InFlight       int64 `json:"inflight"`
	Workers        int   `json:"workers"`
	ActiveShards   int   `json:"active_shards"`
	TableEvictions int64 `json:"table_evictions"`

	// Latency percentiles from the queue-wait and run histograms (power-of-
	// two buckets; estimates are within 2x — see telemetry.Quantile).
	QueueWaitP50US int64 `json:"queue_wait_p50_us"`
	QueueWaitP95US int64 `json:"queue_wait_p95_us"`
	QueueWaitP99US int64 `json:"queue_wait_p99_us"`
	RunP50US       int64 `json:"run_p50_us"`
	RunP95US       int64 `json:"run_p95_us"`
	RunP99US       int64 `json:"run_p99_us"`

	// Tracing state: retained trace count, flight-recorder freezes, and the
	// most recent retained trace IDs (fetch via /v1/trace/{id}).
	TracesStored   int             `json:"traces_stored,omitempty"`
	FlightFreezes  int64           `json:"flight_freezes,omitempty"`
	ExemplarTraces []string        `json:"exemplar_traces,omitempty"`
	Tenants        []statuszTenant `json:"tenants"`

	ProgCache statuszProgCache `json:"prog_cache"`
}

// statuszProgCache is the program cache's row in /statusz. HitRatio is
// hits / (hits + misses), 0 before the first lookup.
type statuszProgCache struct {
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	HitRatio  float64 `json:"hit_ratio"`
	Programs  int     `json:"programs"`
	Instrs    int     `json:"instrs"`
}

// handleStatusz: operator-facing JSON snapshot of admission and ladder state.
func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	depth, high, sheds := s.queue.stats()
	doc := statuszDoc{
		Draining:       s.draining.Load(),
		DegradeLevel:   s.level.Load(),
		QueueDepth:     depth,
		QueueHighWater: high,
		Sheds:          sheds,
		InFlight:       s.inFlight.Load(),
		Workers:        s.pool.Size(),
		ActiveShards:   s.shards.Tenants(),
		TableEvictions: s.shards.Evictions(),
		QueueWaitP50US: telQueueWait.Quantile(0.50),
		QueueWaitP95US: telQueueWait.Quantile(0.95),
		QueueWaitP99US: telQueueWait.Quantile(0.99),
		RunP50US:       telRunTime.Quantile(0.50),
		RunP95US:       telRunTime.Quantile(0.95),
		RunP99US:       telRunTime.Quantile(0.99),
		TracesStored:   s.traces.Len(),
		FlightFreezes:  s.flight.Freezes(),
		ExemplarTraces: s.exemplarTraces(),
	}
	pc := &doc.ProgCache
	pc.Hits, pc.Misses, pc.Evictions = s.progs.hits.Load(), s.progs.misses.Load(), s.progs.evictions.Load()
	if n := pc.Hits + pc.Misses; n > 0 {
		pc.HitRatio = float64(pc.Hits) / float64(n)
	}
	pc.Programs, pc.Instrs = s.progs.stats()
	for _, t := range s.tenants.all() {
		doc.Tenants = append(doc.Tenants, statuszTenant{
			Name:       t.name,
			Submitted:  t.submitted.Load(),
			Admitted:   t.admitted.Load(),
			Completed:  t.completed.Load(),
			Shed:       t.shed.Load(),
			RateLimits: t.rateLimits.Load(),
			Faults:     t.faults.Load(),
			Deadlines:  t.deadlines.Load(),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(doc)
}
