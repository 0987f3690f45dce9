package experiment

import "sync"

// shared is the package's tests' one serial default harness. Tests that
// only read sweep results (speedups, MDESs, reports) read them here, so a
// benchmark explored, combined, selected or compiled for one test is
// memoized for the next. Tests that count memo misses, inject faults or
// change the harness's knobs keep their own harness.
var shared struct {
	once sync.Once
	h    *Harness
}

// sharedHarness returns the shared harness, creating it on first use.
func sharedHarness() *Harness {
	shared.once.Do(func() {
		shared.h = NewHarness()
		shared.h.Parallelism = 1
	})
	return shared.h
}
