package server

import (
	"context"
	"errors"
	"net/http"
	"runtime/debug"
	"time"

	"netpath/internal/chaos"
	"netpath/internal/dynamo"
	"netpath/internal/trace"
	"netpath/internal/vm"
)

// runJob executes one admitted guest on a worker goroutine. It is the
// panic-isolation boundary: whatever a hostile guest (or a server bug)
// throws, exactly one of j.resp / j.apiErr is set and j.done is closed, the
// worker survives, and the process keeps serving other tenants.
func (s *Server) runJob(j *job) {
	start := s.now()
	queueWait := start.Sub(j.enqueued)
	// Observed at the dequeue point — before execution — so queue pressure
	// shows up in the /statusz percentiles while long runs are still going.
	telQueueWait.Observe(queueWait.Microseconds())
	telQueueDepth.Set(int64(s.queue.depth()))
	telInFlight.Set(s.inFlight.Add(1))
	defer func() {
		telInFlight.Set(s.inFlight.Add(-1))
		if r := recover(); r != nil {
			telPanics.Inc()
			s.logf("panic running guest for tenant %s: %v\n%s", j.tenant, r, debug.Stack())
			j.apiErr = errf(CodeInternal, http.StatusInternalServerError,
				"internal error; the request was aborted")
		}
		close(j.done)
	}()

	if j.tr != nil {
		startNS := start.Sub(j.t0).Nanoseconds()
		j.tr.Add(trace.SpanQueueWait, j.trRoot,
			j.enqueued.Sub(j.t0).Nanoseconds(), startNS, 0, 0)
		j.trExec = j.tr.Add(trace.SpanExecute, j.trRoot, startNS, 0, 0, 0)
	}

	steps, deadline := j.req.budgets(s.cfg.Quotas)
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()

	degraded := s.degradeLevel() >= degradeInterpOnly
	var (
		resp *runResponse
		err  *apiError
	)
	if degraded {
		resp, err = s.runInterp(ctx, j, steps)
		if resp != nil {
			resp.Degraded = true
		}
	} else {
		resp, err = s.runDynamo(ctx, j, steps)
	}
	end := s.now()
	runNS := end.Sub(start).Nanoseconds()
	if resp != nil {
		resp.QueueNS = queueWait.Nanoseconds()
		resp.RunNS = runNS
		j.resp = resp
	} else {
		j.apiErr = err
	}
	telRunTime.Observe(runNS / 1e3)
	s.finishTrace(j, start, end, resp, err)
}

// offNS is the current span offset from the request arrival. Server-side
// span times always come from cfg.Now (not trace.Now) so fake-clock tests
// stay coherent with the rest of the handler's timing.
func (s *Server) offNS(j *job) int64 { return s.now().Sub(j.t0).Nanoseconds() }

// finishTrace settles a completed run's observability: closes the sampled
// spans, tail-promotes errored runs the sampling coin skipped, feeds the
// tenant's flight ring, and freezes it on fault/bail/deopt incidents.
func (s *Server) finishTrace(j *job, start, end time.Time, resp *runResponse, apiErr *apiError) {
	if s.traces == nil && s.flight == nil {
		return
	}
	code := ""
	if apiErr != nil {
		code = string(apiErr.Code)
	}
	startNS := start.Sub(j.t0).Nanoseconds()
	endNS := end.Sub(j.t0).Nanoseconds()
	var runSteps, deopts int64
	bailed := false
	if resp != nil {
		runSteps, bailed, deopts = resp.Steps, resp.BailedOut, resp.Deopts
	} else if apiErr != nil {
		runSteps = apiErr.Steps
	}

	tr := j.tr
	if tr != nil {
		tr.SetArg(j.trExec, 0, runSteps)
		tr.EndAt(j.trExec, endNS)
		tr.EndAt(j.trRoot, endNS)
	} else if s.traces != nil && (code != "" || bailed || deopts > 0) {
		// Tail promotion: head sampling said no, but the run ended in an
		// incident — retain a skeleton trace rebuilt from the timing points
		// the handler recorded anyway. Engine spans are absent (the run
		// really did execute with a nil trace); the server-level phases and
		// the terminal code are what an operator needs to start digging.
		tr = trace.New(j.traceID, j.tenant, 8, j.t0)
		root := tr.Add(trace.SpanRequest, trace.NoSpan, 0, endNS, 0, 0)
		tr.Add(trace.SpanAdmission, root, 0, j.admitEndNS, 0, 0)
		tr.Add(trace.SpanVerify, root, j.admitEndNS, j.verifyEndNS, j.verifySite, 0)
		tr.Add(trace.SpanQueueWait, root,
			j.enqueued.Sub(j.t0).Nanoseconds(), startNS, 0, 0)
		tr.Add(trace.SpanExecute, root, startNS, endNS, 0, runSteps)
		tr.MarkTail()
	}
	if tr != nil {
		if code != "" {
			tr.SetErr(code)
		}
		s.traces.Put(tr)
		s.noteExemplar(tr.TraceID())
		j.retained = true
		if resp != nil {
			resp.TraceID = tr.TraceID().String()
		}
	}

	if s.flight != nil {
		s.flight.Note(j.tenant, trace.Record{
			TraceID: j.traceID, Kind: trace.SpanExecute,
			StartUnixNS: j.t0.Add(time.Duration(startNS)).UnixNano(),
			DurNS:       endNS - startNS, Arg: runSteps, Outcome: code,
		})
		switch {
		case apiErr != nil && apiErr.Code == CodeGuestFault:
			s.flight.Freeze(j.tenant, "fault", j.traceID)
		case bailed:
			s.flight.Freeze(j.tenant, "bail", j.traceID)
		case deopts > 0:
			s.flight.Freeze(j.tenant, "deopt", j.traceID)
		}
	}
}

// runDynamo executes the guest under the full NET translation stack, with
// its table shard allocated from the server's global budget.
func (s *Server) runDynamo(ctx context.Context, j *job, steps int64) (*runResponse, *apiError) {
	req := j.req
	tau := req.Tau
	if tau == 0 {
		tau = 50
	}
	cfg := dynamo.DefaultConfig(req.scheme, tau)
	cfg.MaxSteps = steps
	cfg.Telemetry = s.sink
	cfg.Trace = j.tr
	cfg.TraceParent = j.trExec
	s.shards.Alloc(j.tenant).Apply(&cfg)
	cfg.Tier2Threshold = s.cfg.Tier2Threshold
	if req.ChaosSeed != 0 && (req.ChaosTrapPerM > 0 || req.ChaosSoftPerM > 0) {
		cfg.Chaos = chaos.NewRandom(req.ChaosSeed, chaos.Rates{
			TrapPerM:        req.ChaosTrapPerM,
			RecordAbortPerM: req.ChaosSoftPerM,
			FragAbortPerM:   req.ChaosSoftPerM,
			CorruptPerM:     req.ChaosSoftPerM,
			SpikePerM:       req.ChaosSoftPerM,
		})
	}

	sys := dynamo.New(req.program, cfg)
	// Warm-start from the tenant's stored profile, keyed strictly by
	// (tenant, program fingerprint, scheme): another tenant's profile for
	// the same bytes is invisible here. A failed restore (e.g. a chaos
	// configuration that rejects pre-seeding) just starts the run cold.
	var key snapKey
	if s.snaps != nil {
		key = snapKey{tenant: j.tenant, fp: req.program.Fingerprint(), scheme: req.scheme.String()}
		if sn := s.snaps.get(key); sn != nil {
			rs := trace.NoSpan
			if j.tr != nil {
				rs = j.tr.Add(trace.SpanRestore, j.trExec, s.offNS(j), 0, 0, 0)
			}
			if err := sys.Restore(sn); err != nil {
				s.logf("snapshot restore for tenant %s: %v (running cold)", j.tenant, err)
			} else {
				telSnapRestored.Inc()
			}
			if j.tr != nil {
				j.tr.EndAt(rs, s.offNS(j))
			}
		}
	}
	res, runErr := sys.RunContext(ctx)
	s.shards.Release(j.tenant, res)
	if apiErr := s.mapRunError(runErr, res.Steps); apiErr != nil {
		return nil, apiErr
	}
	if s.snaps != nil {
		// Merge the run's profile back under the same key, clamped to the
		// shard's table budget so the stored profile never outgrows what a
		// later shard of this tenant could import.
		ms := trace.NoSpan
		if j.tr != nil {
			ms = j.tr.Add(trace.SpanMergeBack, j.trExec, s.offNS(j), 0, 0, 0)
		}
		sn := sys.Snapshot(j.tenant)
		sn.Clamp(sys.SnapshotLimits())
		if err := s.snaps.put(key, sn); err != nil {
			s.logf("snapshot merge-back for tenant %s: %v", j.tenant, err)
		} else {
			telSnapMerged.Inc()
		}
		if j.tr != nil {
			j.tr.EndAt(ms, s.offNS(j))
		}
	}

	m := sys.Machine()
	return &runResponse{
		Tenant:    j.tenant,
		Name:      req.Name,
		Scheme:    req.scheme.String(),
		Mode:      "dynamo",
		Steps:     res.Steps,
		Fragments: res.Fragments,
		Flushes:   res.Flushes,
		SpeedupPC: 100 * res.Speedup(),
		CachedPC:  100 * res.CachedFraction(),
		BailedOut: res.BailedOut,
		Deopts:    res.T2Deopts,
		Restored:  res.RestoredFragments,
		Regs:      append([]int64(nil), m.Reg[:]...),
	}, nil
}

// runInterp executes the guest on the bare VM — the degraded mode: no
// profiling, no translation, no fragment-table pressure, just bounded
// interpretation. Uses the chunked context-aware step loop so deadlines
// still preempt.
func (s *Server) runInterp(ctx context.Context, j *job, steps int64) (*runResponse, *apiError) {
	m := vm.New(j.req.program)
	if j.tr != nil {
		tr, parent := j.tr, j.trExec
		m.SetFaultObserver(func(kind vm.FaultKind, pc int, step int64) {
			now := tr.Now()
			tr.Add(trace.SpanFault, parent, now, now, int32(pc), int64(kind))
		})
	}
	runErr := m.RunContext(ctx, steps)
	if apiErr := s.mapRunError(runErr, m.Steps); apiErr != nil {
		return nil, apiErr
	}
	return &runResponse{
		Tenant: j.tenant,
		Name:   j.req.Name,
		Scheme: j.req.scheme.String(),
		Mode:   "interp",
		Steps:  m.Steps,
		Regs:   append([]int64(nil), m.Reg[:]...),
	}, nil
}

// mapRunError translates VM/dynamo run errors into the typed API vocabulary.
// nil means the guest halted cleanly.
func (s *Server) mapRunError(err error, steps int64) *apiError {
	if err == nil {
		return nil
	}
	var de *dynamo.DeadlineError
	switch {
	case errors.As(err, &de):
		telDeadlines.Inc()
		e := errf(CodeDeadline, http.StatusRequestTimeout,
			"guest preempted at wall-clock deadline after %d steps", de.Steps)
		e.Steps = de.Steps
		return e
	case errors.Is(err, vm.ErrPreempted),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		telDeadlines.Inc()
		e := errf(CodeDeadline, http.StatusRequestTimeout,
			"guest preempted at wall-clock deadline after %d steps", steps)
		e.Steps = steps
		return e
	case errors.Is(err, vm.ErrStepLimit):
		telStepLimits.Inc()
		e := errf(CodeStepLimit, http.StatusUnprocessableEntity,
			"guest exhausted its %d-step budget", steps)
		e.Steps = steps
		return e
	}
	var fault *vm.Fault
	if errors.As(err, &fault) {
		telGuestFaults.Inc()
		e := errf(CodeGuestFault, http.StatusUnprocessableEntity, "guest fault: %v", fault)
		e.Steps = steps
		return e
	}
	// Anything else is a server-side failure (e.g. a dynamo invariant); it
	// is not the client's fault but it must not masquerade as success.
	telPanics.Inc()
	s.logf("unexpected run error for steps=%d: %v", steps, err)
	return errf(CodeInternal, http.StatusInternalServerError, "internal error: run failed")
}
