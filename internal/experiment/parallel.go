package experiment

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// PanicError is a panic caught at a pipeline fault boundary (a parallelFor
// job or a memoized computation) and converted into an ordinary error, so
// one poisoned benchmark cannot take down a whole sweep. It carries the
// recovered value, the goroutine stack at the panic site, and the identity
// of the failing job.
type PanicError struct {
	// Job is the parallelFor index of the failing job, or -1 when the panic
	// was caught inside a memoized computation rather than a job body.
	Job int
	// Context names what was running, e.g. `benchmark "crc"` or a memo key.
	Context string
	// Value is the value passed to panic().
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic in %s: %v\n%s", e.Context, e.Value, e.Stack)
}

// recoverToError converts an in-flight panic into a *PanicError. It must be
// called directly from a deferred function.
func recoverToError(job int, context string, errp *error) {
	if r := recover(); r != nil {
		buf := make([]byte, 64<<10)
		buf = buf[:runtime.Stack(buf, false)]
		*errp = &PanicError{Job: job, Context: context, Value: r, Stack: buf}
	}
}

// workers resolves the harness's degree of parallelism: Parallelism when
// positive, else one worker per available CPU. It bounds the pool's jobs
// and, separately, each exploration's goroutines (explore.Config.Workers):
// a job blocked on another job's memo cell thus leaves its core to the
// exploration it waits for. Explore ignores Workers under an anytime
// budget, whose truncation point must not depend on scheduling.
func (h *Harness) workers() int {
	if h.Parallelism > 0 {
		return h.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// parallelFor runs fn(i) for every i in [0, n), fanning the indices out
// over at most workers() goroutines, and returns the join (in index order)
// of every job's error. Results must be written by fn into index i of a
// pre-sized slice, which makes the merge order identical to the serial
// loop no matter how the scheduler interleaves jobs. A failing — or
// panicking — job never stops the others: every job runs to completion
// even in serial mode, so callers always hold the partial results of the
// jobs that succeeded.
//
// The pool accounts for its jobs' time. Wait time is what jobs spent
// blocked on a memo cell another goroutine was computing or on a
// selection lock another job held (the harness's waitNanos over the
// fan-out); busy time is the jobs' summed wall time less that wait.
// AggregateJobTime accumulates busy time, and when telemetry is enabled
// the pool also reports pool.busy_ns, pool.wait_ns and pool.capacity_ns
// (workers x the fan-out's wall time), so busy/capacity is the fraction
// of worker-time spent working — why -j 8 can achieve less than 8x.
func (h *Harness) parallelFor(n int, fn func(i int) error) error {
	return errors.Join(h.parallelForAll(n, nil, fn)...)
}

// parallelForAll is parallelFor with per-job error attribution: it returns
// the full per-index error slice so harnesses can map failures back to the
// benchmark that caused them. Each job runs under a panic fence: a panic
// becomes a *PanicError in the job's slot (named via jobName when non-nil)
// carrying the goroutine stack, and the pool.panics telemetry counter
// tallies every job whose error chain contains one — whether the panic
// fired in the job body or inside a memoized computation the job waited on.
func (h *Harness) parallelForAll(n int, jobName func(i int) string, fn func(i int) error) []error {
	w := h.workers()
	if w > n {
		w = n
	}
	tel := h.Telemetry
	nameOf := jobName
	if nameOf == nil {
		nameOf = func(i int) string { return fmt.Sprintf("job %d", i) }
	}
	var jobWall atomic.Int64
	job := func(i int) (err error) {
		defer recoverToError(i, nameOf(i), &err)
		defer func(t0 time.Time) { jobWall.Add(int64(time.Since(t0))) }(time.Now())
		return fn(i)
	}
	poolStart, wait0 := time.Now(), h.waitNanos.Load()
	defer func() {
		wait := h.waitNanos.Load() - wait0
		busy := jobWall.Load() - wait
		h.jobNanos.Add(busy)
		if tel.Enabled() {
			tel.Add("pool.jobs", int64(n))
			tel.MaxGauge("pool.workers", float64(w))
			tel.Add("pool.busy_ns", busy)
			tel.Add("pool.wait_ns", wait)
			tel.Add("pool.capacity_ns", int64(w)*int64(time.Since(poolStart)))
		}
	}()
	errs := make([]error, n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			errs[i] = job(i)
		}
	} else {
		next := int64(-1)
		var wg sync.WaitGroup
		for k := 0; k < w; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(atomic.AddInt64(&next, 1))
					if i >= n {
						return
					}
					errs[i] = job(i)
				}
			}()
		}
		wg.Wait()
	}
	var panics int64
	for _, err := range errs {
		var pe *PanicError
		if errors.As(err, &pe) {
			panics++
		}
	}
	if panics > 0 {
		tel.Add("pool.panics", panics)
	}
	return errs
}

// memoCell holds one compute-once cache entry. The harness maps keys to
// cells under its mutex but runs the expensive computation outside it, so
// different keys compute in parallel while a contested key computes
// exactly once and every waiter gets the same value.
type memoCell[V any] struct {
	once sync.Once
	// done is set once the computation has finished, so a caller that
	// finds it clear knows it may block and times the wait.
	done atomic.Bool
	val  V
	err  error
}

// memoize returns the cached value for key, computing it via f exactly
// once across all goroutines. mu guards only the map lookup. The second
// return reports whether the cell already existed (a cache hit — including
// co-waiting on a computation another goroutine started, since the cache
// still prevented a recompute). Time spent blocked on another
// goroutine's computation of the cell is added to wait when it is non-nil.
//
// Two fault rules keep a bad computation from poisoning the cache:
//
//   - A panic inside f is recovered into a *PanicError. Without that,
//     sync.Once would mark the cell done with a zero value and a nil
//     error, and every later caller would silently get garbage.
//   - An errored cell is evicted before returning, so only successful
//     values are cached permanently and a later call retries the
//     computation (transient failures heal; the concurrent co-waiters of
//     the failed attempt all still see its error).
func memoize[K comparable, V any](mu *sync.Mutex, m map[K]*memoCell[V], key K, wait *atomic.Int64, f func() (V, error)) (V, bool, error) {
	mu.Lock()
	c, hit := m[key]
	if !hit {
		c = &memoCell[V]{}
		m[key] = c
	}
	mu.Unlock()
	var t0 time.Time
	if !c.done.Load() {
		t0 = time.Now()
	}
	computed := false
	c.once.Do(func() {
		computed = true
		defer recoverToError(-1, fmt.Sprintf("memoized computation %v", key), &c.err)
		c.val, c.err = f()
	})
	c.done.Store(true)
	if !computed && !t0.IsZero() && wait != nil {
		wait.Add(int64(time.Since(t0)))
	}
	if c.err != nil {
		mu.Lock()
		// Only evict our own cell: a retry may already have installed a
		// fresh one.
		if m[key] == c {
			delete(m, key)
		}
		mu.Unlock()
	}
	return c.val, hit, c.err
}

// lockSel takes the per-application mutex serializing cfu.Select (and
// BuildMultiFunction) calls over that application's shared candidate
// slice, which selection mutates, and returns its unlock. Time spent
// waiting for another job to release it counts as wait time.
func (h *Harness) lockSel(app string) (unlock func()) {
	h.mu.Lock()
	l, ok := h.selLocks[app]
	if !ok {
		l = &sync.Mutex{}
		h.selLocks[app] = l
	}
	h.mu.Unlock()
	if !l.TryLock() {
		t0 := time.Now()
		l.Lock()
		h.waitNanos.Add(int64(time.Since(t0)))
	}
	return l.Unlock
}

// AggregateJobTime returns the summed time the harness's worker-pool jobs
// spent working: their wall time less the time they sat blocked on a memo
// cell or selection lock held by another goroutine. AggregateJobTime over
// a run's wall-clock time is the mean number of jobs doing work at once.
// It is an upper bound on the parallel speedup, not a measurement of it:
// two jobs sharing one core, or one waiting on the garbage collector,
// both count as working.
func (h *Harness) AggregateJobTime() time.Duration {
	return time.Duration(h.jobNanos.Load())
}
