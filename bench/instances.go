package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"slices"
	"sync"
	"time"

	"netpath/internal/dynamo"
	"netpath/internal/prog"
	"netpath/internal/server"
	"netpath/internal/trace"
)

// Instances: a set-up system under test with its job sequence.

// sample is one finished job.
type sample struct {
	lat    time.Duration
	ok     bool // completed and matched the reference
	status int  // served: HTTP status (0 = transport error)
	resp   *runResponse
	tr     *trace.Trace // in-process traced job
}

// instance is a set-up workload, ready for measurement windows.
type instance interface {
	sequence
	clients() int
	do(j job, traced bool) sample
	close()
}

// cell is one in-process job shape: a program under one configuration.
type cell struct {
	p   *prog.Program
	cfg dynamo.Config
}

// inproc runs cells in-process with one caller.
type inproc struct {
	sequence
	cells []cell
	t2    *dynamo.Tier2Compiler // nil for tier-1 workloads
}

func (w *inproc) clients() int { return 1 }

func (w *inproc) do(j job, traced bool) sample {
	c := &w.cells[j.cell]
	var tr *trace.Trace
	if traced {
		tr = trace.New(trace.NewID(), "bench", inprocSpans, time.Now())
	}
	t0 := time.Now()
	_, got := runDynamo(c.p, c.cfg, tr)
	return sample{lat: time.Since(t0), ok: got == j.want, tr: tr}
}

func (w *inproc) close() {
	if w.t2 != nil {
		w.t2.Close()
	}
}

// drainTier2 waits until the compile queue is empty, so background work of
// earlier jobs does not spill into what comes next.
func drainTier2(c *dynamo.Tier2Compiler) {
	if c == nil {
		return
	}
	for end := time.Now().Add(10 * time.Second); c.Depth() > 0 && time.Now().Before(end); {
		time.Sleep(time.Millisecond)
	}
}

// cellJobs lists one job per (program, shape) cell, program-major: job i
// runs cell i.
func cellJobs(progs []program, shapes func(*dynamo.Tier2Compiler) []shape) []job {
	var jobs []job
	for _, pr := range progs {
		for _, sh := range shapes(nil) {
			jobs = append(jobs, job{label: pr.p.Name + "/" + sh.label, cell: len(jobs), want: pr.want})
		}
	}
	return jobs
}

// setupInproc builds progs afresh into the cells cellJobs numbers, and
// runs every cell warmRounds times: the first dynamo.New per program pays
// the verifier gate, and the first tier-2 promotion fills the dataflow memo.
func setupInproc(w *workloadDef, seq sequence, progs []program) (*inproc, error) {
	ps, err := rebuild(progs)
	if err != nil {
		return nil, err
	}
	in := &inproc{sequence: seq}
	if w.tier2 {
		in.t2 = newTier2Compiler()
	}
	for _, p := range ps {
		for _, sh := range w.shapes(in.t2) {
			in.cells = append(in.cells, cell{p: p, cfg: sh.cfg})
		}
	}
	warm := cellJobs(progs, w.shapes)
	for r := 0; r < w.warmRounds; r++ {
		for _, j := range warm {
			if s := in.do(j, false); !s.ok {
				in.close()
				return nil, fmt.Errorf("warm-up %s: output differs from the reference", j.label)
			}
		}
	}
	drainTier2(in.t2)
	return in, nil
}

// runResponse is the part of the server's POST /v1/run reply the benchmark
// reads.
type runResponse struct {
	Steps    int64   `json:"steps"`
	Regs     []int64 `json:"regs"`
	Degraded bool    `json:"degraded"`
	Restored int     `json:"restored_fragments"`
	QueueNS  int64   `json:"queue_ns"`
	RunNS    int64   `json:"run_ns"`
	TraceID  string  `json:"trace_id"`
}

// served drives an in-process netpathd over real HTTP on loopback.
type served struct {
	sequence
	srv    *server.Server
	url    string
	client *http.Client
}

// startServer starts the served workloads' server: two workers, tier 2 on
// one compile worker, a 64-profile snapshot store, default quotas. With
// traceStore > 0 request tracing is on, sampled at sample or on request.
func startServer(traceStore int, sample float64) (*served, error) {
	srv := server.New(server.Config{
		Workers:       serveWorkers,
		Tier2:         true,
		Tier2Workers:  1,
		SnapshotLimit: 64,
		TraceStore:    traceStore,
		TraceSample:   sample,
		TraceSpans:    serverSpans,
		Logf:          log.Printf,
	})
	s := &served{srv: srv, client: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: servedClients,
		MaxConnsPerHost:     servedClients,
		DisableCompression:  true,
	}}}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.url = "http://" + addr.String()
	for end := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		resp, err := s.client.Get(s.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(end) {
			s.close()
			return nil, fmt.Errorf("server not ready after 10s (last error: %v)", err)
		}
	}
}

func (s *served) clients() int { return servedClients }

func (s *served) do(j job, traced bool) sample {
	req, err := http.NewRequest(http.MethodPost, s.url+"/v1/run", bytes.NewReader(j.body))
	if err != nil {
		return sample{}
	}
	req.Header.Set("Content-Type", "application/json")
	if traced {
		req.Header.Set("traceparent", trace.Traceparent(trace.NewID(), true))
	}
	t0 := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return sample{lat: time.Since(t0)}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := sample{lat: time.Since(t0), status: resp.StatusCode}
	if err != nil || resp.StatusCode != http.StatusOK {
		return out
	}
	var r runResponse
	if json.Unmarshal(body, &r) != nil {
		return out
	}
	out.resp = &r
	out.ok = r.Steps == j.want.Steps && slices.Equal(r.Regs, j.want.Regs[:]) && j.want.Fault == ""
	return out
}

// fetchTrace reads a retained request trace.
func (s *served) fetchTrace(id string) (*trace.Doc, error) {
	resp, err := s.client.Get(s.url + "/v1/trace/" + id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("trace %s: HTTP %d", id, resp.StatusCode)
	}
	return trace.DecodeDoc(resp.Body)
}

func (s *served) close() {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx, nil); err != nil {
		log.Printf("bench: server shutdown: %v", err)
	}
}

// warmServed sends every warm-up job once from the instance's clients; any
// failure fails the set-up.
func warmServed(s *served, jobs []job) error {
	var (
		mu     sync.Mutex
		next   int
		failed []string
		wg     sync.WaitGroup
	)
	for c := 0; c < s.clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next == len(jobs) {
					mu.Unlock()
					return
				}
				j := jobs[next]
				next++
				mu.Unlock()
				if r := s.do(j, false); !r.ok {
					mu.Lock()
					failed = append(failed, fmt.Sprintf("%s (HTTP %d)", j.label, r.status))
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if len(failed) > 0 {
		return fmt.Errorf("warm-up failed: %v", failed)
	}
	return nil
}

// setupServed starts a server, sends the warm-up jobs, and attaches seq.
func setupServed(seq sequence, warm []job, traced bool) (*served, error) {
	traceStore := 0
	if traced {
		traceStore = serverTraces
	}
	s, err := startServer(traceStore, 0)
	if err != nil {
		return nil, err
	}
	if err := warmServed(s, warm); err != nil {
		s.close()
		return nil, err
	}
	s.sequence = seq
	return s, nil
}
