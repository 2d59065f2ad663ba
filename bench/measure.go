package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// window is one closed-loop measurement interval.
type window struct {
	lat       []time.Duration // every job's latency, in completion order
	attempted int64
	failed    int64
	elapsed   time.Duration
	// cpu is the process's user+sys CPU over the window, less the CPU the
	// load generator spent making jobs (serve_fresh generates a program
	// and runs its reference per request).
	cpu   time.Duration
	alloc uint64 // bytes allocated
	// gcCPU and runtimeCPU are the runtime's estimates of GC and total
	// CPU seconds.
	gcCPU, runtimeCPU float64
}

// jobsPerSec is completed correct jobs per second.
func (w window) jobsPerSec() float64 {
	return float64(w.attempted-w.failed) / w.elapsed.Seconds()
}

// gcFrac is GC's share of the process's CPU.
func (w window) gcFrac() float64 {
	if w.runtimeCPU <= 0 {
		return 0
	}
	return w.gcCPU / w.runtimeCPU
}

// add accumulates another window's measurements into w.
func (w *window) add(o window) {
	w.lat = append(w.lat, o.lat...)
	w.attempted += o.attempted
	w.failed += o.failed
	w.elapsed += o.elapsed
	w.cpu += o.cpu
	w.alloc += o.alloc
	w.gcCPU += o.gcCPU
	w.runtimeCPU += o.runtimeCPU
}

// runWindow drives inst closed-loop from inst.clients() goroutines for d;
// each client finishes the job it has in flight at the deadline. observe,
// if non-nil, sees every finished job, one at a time.
func runWindow(inst instance, d time.Duration, traced bool, observe func(sample)) (window, error) {
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, tot0 := gcCPU()
	cpu0 := rusageCPU(syscall.RUSAGE_SELF)

	var (
		w       window
		mu      sync.Mutex
		genCPU  atomic.Int64
		seqErr  error
		wg      sync.WaitGroup
		start   = time.Now()
		stopped = start.Add(d)
	)
	for c := 0; c < inst.clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stopped) {
				var j job
				var err error
				genCPU.Add(int64(threadCPU(func() { j, err = inst.next() })))
				if err != nil {
					mu.Lock()
					seqErr = err
					mu.Unlock()
					return
				}
				s := inst.do(j, traced)
				mu.Lock()
				w.attempted++
				if !s.ok {
					w.failed++
				}
				w.lat = append(w.lat, s.lat)
				if observe != nil {
					observe(s)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	w.cpu = rusageCPU(syscall.RUSAGE_SELF) - cpu0 - time.Duration(genCPU.Load())
	runtime.ReadMemStats(&ms1)
	w.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	gc1, tot1 := gcCPU()
	w.gcCPU, w.runtimeCPU = gc1-gc0, tot1-tot0
	return w, seqErr
}

// rusageThread is Linux's RUSAGE_THREAD, which the syscall package does not
// name.
const rusageThread = 1

func rusageCPU(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPU runs f on a locked OS thread and returns the CPU time that
// thread spent in it.
func threadCPU(f func()) time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := rusageCPU(rusageThread)
	f()
	return rusageCPU(rusageThread) - t0
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// gcCPU reads the runtime's cumulative GC and total CPU estimates.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// Order statistics.

// percentile is the nearest-rank q-quantile of xs (0 for no samples).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles returns the first, second and third quartiles of xs by the
// exclusive method of Python's statistics.quantiles(xs, n=4), the rule the
// benchmark's spread check uses. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n, m := 4, len(s)+1
	q := make([]float64, 3)
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, len(s)-1))
		delta := float64(i*m - j*n)
		q[i-1] = (s[j-1]*(float64(n)-delta) + s[j]*delta) / float64(n)
	}
	return q[0], q[1], q[2]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
