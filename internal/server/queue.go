package server

import (
	"net/http"
	"sync"
	"time"

	"netpath/internal/trace"
)

// job is one admitted guest execution travelling from the HTTP handler
// through the admission queue to a worker and back.
type job struct {
	tenant   string
	req      *runRequest
	enqueued time.Time

	// Trace plumbing, set at admission (see handleRun). t0 anchors every
	// span offset; tr is nil for sampled-out runs (the zero-cost state). The
	// admission/verify offsets are kept even when unsampled so an errored
	// run can be tail-promoted into a skeleton trace after the fact.
	t0          time.Time
	traceID     trace.ID
	tr          *trace.Trace
	trRoot      int32
	trExec      int32
	admitEndNS  int64
	verifyEndNS int64
	// verifySite is the verify span's site: verifySiteHit when the
	// program came from the program cache (the span then timed only the
	// key hash and the quota checks), 0 when it was built and verified.
	verifySite int32
	retained   bool // trace kept in the store (worker → handler, via done)

	// Filled by the worker; done is closed when exactly one of resp/apiErr
	// is set.
	resp   *runResponse
	apiErr *apiError
	done   chan struct{}
}

// verifySiteHit marks a verify span whose program came from the program
// cache, so a traced run attributes the verification a hit saved.
const verifySiteHit int32 = 1

// queue is the bounded, per-tenant-fair admission queue. Each tenant gets
// its own FIFO; workers dequeue round-robin across tenants with pending
// work, so one tenant flooding its share cannot starve another's trickle —
// the queueing analogue of the per-tenant table shards. Two caps gate
// enqueue: a global depth (total buffered guests) and a per-tenant depth
// (one tenant's share of the buffer). Both rejections are load sheds.
type queue struct {
	mu   sync.Mutex
	cond *sync.Cond

	capTotal  int
	capTenant int

	pending map[string][]*job // per-tenant FIFO
	ring    []string          // tenants with pending work, round-robin order
	next    int               // ring cursor
	size    int

	closed bool // no further enqueues; dequeues drain, then report done

	// High-water mark and shed count, for /statusz and the ladder.
	highWater int
	sheds     int64
}

func newQueue(capTotal, capTenant int) *queue {
	q := &queue{
		capTotal:  capTotal,
		capTenant: capTenant,
		pending:   make(map[string][]*job),
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// enqueue admits j or rejects it with a typed shed/drain error.
func (q *queue) enqueue(j *job) *apiError {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return &apiError{Code: CodeDraining, Message: "server is draining; no new guests admitted",
			RetryAfter: 5, status: http.StatusServiceUnavailable}
	}
	if q.size >= q.capTotal {
		q.sheds++
		return &apiError{Code: CodeOverloaded, Message: "admission queue full; load shed",
			RetryAfter: 1, status: http.StatusServiceUnavailable}
	}
	tq := q.pending[j.tenant]
	if len(tq) >= q.capTenant {
		q.sheds++
		return &apiError{Code: CodeOverloaded, Message: "tenant queue share full; load shed",
			RetryAfter: 1, status: http.StatusServiceUnavailable}
	}
	if len(tq) == 0 {
		q.ring = append(q.ring, j.tenant)
	}
	q.pending[j.tenant] = append(tq, j)
	q.size++
	if q.size > q.highWater {
		q.highWater = q.size
	}
	q.cond.Signal()
	return nil
}

// dequeue blocks until a job is available (rotating fairly across tenants)
// or the queue is closed and drained, in which case ok is false and the
// calling worker retires.
func (q *queue) dequeue() (j *job, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.size > 0 {
			if q.next >= len(q.ring) {
				q.next = 0
			}
			tenant := q.ring[q.next]
			tq := q.pending[tenant]
			j = tq[0]
			tq[0] = nil // do not pin completed jobs
			tq = tq[1:]
			if len(tq) == 0 {
				delete(q.pending, tenant)
				q.ring = append(q.ring[:q.next], q.ring[q.next+1:]...)
				// next now points at the following tenant; no advance.
			} else {
				q.pending[tenant] = tq
				q.next++
			}
			q.size--
			return j, true
		}
		if q.closed {
			return nil, false
		}
		q.cond.Wait()
	}
}

// close stops admission; buffered jobs still drain. Idempotent.
func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// depth returns the buffered job count.
func (q *queue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}

// stats returns depth, lifetime high water, and lifetime sheds.
func (q *queue) stats() (depth, highWater int, sheds int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size, q.highWater, q.sheds
}
