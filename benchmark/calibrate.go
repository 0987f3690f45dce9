package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"syscall"
	"time"
)

// The machine the benchmark was defined on, a shared 2-vCPU VM, changes
// speed by regime, for minutes at a time: over one 15-minute window, with
// nothing else of the benchmark's running, the same six customizations took
// from 0.55 s to 1.6 s, and within one process a fixed 80 ms task slows and
// speeds up by up to 30% from one second to the next. Raw times therefore
// spread by 25-30% between runs minutes apart, more than any bound a change
// could be judged by. So an untraced run also times rounds of a fixed
// reference workload throughout: before its first setup, after each setup,
// about once a second between the measured phase's operations, and after
// the measured phase. It reports the times of pipeline work scaled to the
// speed the reference workload had when the benchmark was defined: a time t
// is reported as t * calibRefSeconds / calib, where calib is the median of
// the run's rounds. The raw times go to standard error.
//
// Rounds interleaved with the work track the machine much better than
// rounds taken only before and after it. Over thirty processes, each timing
// 27 customizations with a round after each, the customizations' total
// correlated with the interleaved rounds' median by 0.92 (logarithms) and
// with the median of twelve rounds taken before and after by 0.55; scaled
// by the first its spread (interquartile range over median) fell from 12%
// to 5%, scaled by the second only to 9%. A reference workload that fits in
// the processor's caches tracked worse (0.83, spread 14%): the machine's
// slow regimes slow memory more than arithmetic.
//
// A round also has to occupy the processors the way the work does. A sweep
// at Parallelism nproc needs every processor, so a round between sweeps
// runs the reference workload on nproc goroutines at once: over thirty
// processes, sweeps correlated with such rounds by 0.48 (slope 1.0) and
// with one-goroutine rounds by 0.24 (slope 0.4), which made the scaled
// spread worse than the raw one. A service-miss client, whose request has
// one processor while the other client's request has the other, times a
// round on its own goroutine between its requests (correlation 0.70, slope
// 1.0).

// calibRefSeconds is a run's median round time on the machine the
// benchmark was defined on (Intel Xeon at 2.0 GHz, 2 vCPUs, Go 1.24) in its
// faster regime: the fastest tenth of 45 runs had medians of 0.061-0.063 s,
// the median run 0.069 s.
const calibRefSeconds = 0.062

// calibInterval is how often the measured phase times a round, which costs
// about 6% of the phase.
const calibInterval = time.Second

// calibTableBytes is the size of the reference workload's table, 1<<22
// words, larger than the processor's caches.
const calibTableBytes = 8 << 22

// calibration is the reference workload: on each goroutine of a round,
// reads of 64-bit words at hashed positions of a table larger than the
// processor's caches, then sorting copies of a fixed slice. It is built
// from a fixed seed, uses only the standard library, and allocates nothing
// while timed but its goroutines. The table is mapped outside the Go heap,
// so it does not change the program's garbage collection, and run
// subtracts its resident pages from peak_rss_mb. The program under test
// cannot change a round's time, except on service-miss, where a round runs
// beside the other client's request and shares the caches and memory with
// it.
type calibration struct {
	table  []byte
	floats []float64
	// scratch and sums are each goroutine's sort buffer and sum of words
	// read, which keeps the reads from being optimized away.
	scratch [][]float64
	sums    []uint64

	// mu serializes rounds; tick skips its turn while another caller holds it.
	mu     sync.Mutex
	rounds []float64
	// next is when the measured phase is due its next round.
	next time.Time
}

func newCalibration() (*calibration, error) {
	table, err := syscall.Mmap(-1, 0, calibTableBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, fmt.Errorf("mapping the reference workload's table: %w", err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < len(table); i += 8 {
		binary.LittleEndian.PutUint64(table[i:], rng.Uint64())
	}
	c := &calibration{table: table, floats: make([]float64, 1<<17), sums: make([]uint64, nproc())}
	for i := range c.floats {
		c.floats[i] = rng.Float64()
	}
	for range c.sums {
		c.scratch = append(c.scratch, make([]float64, len(c.floats)))
	}
	return c, nil
}

// round runs the reference workload on goroutines 0..n-1 at once (n at
// most nproc) and records how long the last took to finish. The caller
// holds c.mu.
func (c *calibration) round(n int) {
	t0 := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.pass(k)
		}()
	}
	wg.Wait()
	c.rounds = append(c.rounds, time.Since(t0).Seconds())
}

// pass is goroutine k's share of a round. Each goroutine reads its own
// stretch of the hash sequence, so no two read the same words in step.
func (c *calibration) pass(k int) {
	// Fibonacci hashing to 22 bits picks one of the table's 1<<22 words.
	const shift = 64 - 22
	const reads = 1 << 18
	var sum uint64
	for i := uint64(k*reads + 1); i <= uint64((k+1)*reads); i++ {
		j := (i * 0x9E3779B97F4A7C15) >> shift
		sum += binary.LittleEndian.Uint64(c.table[j*8:])
	}
	c.sums[k] += sum
	for r := 0; r < 3; r++ {
		copy(c.scratch[k], c.floats)
		sort.Float64s(c.scratch[k])
	}
}

// calibrate times n rounds on nproc goroutines now, while the program is
// idle, and makes the next tick due calibInterval later. A nil calibration,
// as in a traced run, does nothing.
func (c *calibration) calibrate(n int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 0; i < n; i++ {
		c.round(nproc())
	}
	c.next = time.Now().Add(calibInterval)
}

// tick is called between the measured phase's operations. It times one
// round on the given number of goroutines for each calibInterval that has
// passed since the previous round was due, and returns at once if another
// goroutine is timing rounds. A nil calibration does nothing.
func (c *calibration) tick(goroutines int) {
	if c == nil || !c.mu.TryLock() {
		return
	}
	defer c.mu.Unlock()
	for !time.Now().Before(c.next) {
		c.round(goroutines)
		c.next = c.next.Add(calibInterval)
	}
}

// seconds is the median round time so far, and how many rounds it covers.
func (c *calibration) seconds() (float64, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return median(c.rounds), len(c.rounds)
}

// tableMB is the table's size in the unit of peakRSSMB.
func (c *calibration) tableMB() float64 { return float64(len(c.table)) / (1 << 20) }

func (c *calibration) close() error {
	return syscall.Munmap(c.table)
}
