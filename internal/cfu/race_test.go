package cfu

import (
	"sync"
	"testing"

	"repro/internal/explore"
	"repro/internal/hwlib"
	"repro/internal/workloads"
)

// TestLazyVariantsConcurrent exercises the read-only sharing contract a
// parallel harness relies on: once combination is done, goroutines may
// concurrently hash signatures and force lazy variant generation on the
// same candidates. Under -race this catches an unguarded lazy fill.
func TestLazyVariantsConcurrent(t *testing.T) {
	lib := hwlib.Default()
	b, err := workloads.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	res := explore.Explore(b.Program, explore.DefaultConfig(lib))
	cands := Combine(res, lib, CombineOptions{})
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, c := range cands {
				c.Shape.Signature()
				ensureVariants(c)
				if c.Variants == nil {
					t.Error("ensureVariants left Variants nil")
					return
				}
			}
		}()
	}
	wg.Wait()

	// Selection itself must stay serialized per candidate list (it
	// mutates relationship links); run it once afterwards to confirm the
	// concurrent warm-up did not corrupt anything it depends on.
	sel := Select(cands, SelectOptions{Budget: 15, Lib: lib})
	if len(sel.CFUs) == 0 || sel.TotalArea <= 0 {
		t.Fatalf("selection after concurrent warm-up broken: %+v", sel)
	}
}

// TestCombineConcurrent runs two programs' combinations at once, as a
// parallel harness does, and requires each to equal its serial result.
// Every CombinePartial call owns its shape builder; under -race this
// catches any scratch shared between calls.
func TestCombineConcurrent(t *testing.T) {
	lib := hwlib.Default()
	var results []*explore.Result
	var want []string
	for _, name := range []string{"sha", "blowfish"} {
		b, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res := explore.Explore(b.Program, explore.DefaultConfig(lib))
		results = append(results, res)
		want = append(want, streamHash(res, Combine(res, lib, CombineOptions{})))
	}
	got := make([]string, len(results))
	var wg sync.WaitGroup
	for i, res := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = streamHash(res, Combine(res, lib, CombineOptions{}))
		}()
	}
	wg.Wait()
	for i := range results {
		if got[i] != want[i] {
			t.Errorf("program %d: concurrent combination digest %s, serial %s", i, got[i], want[i])
		}
	}
}
