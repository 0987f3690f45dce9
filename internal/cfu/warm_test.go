package cfu

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/explore"
	"repro/internal/hwlib"
	"repro/internal/ir"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// sameCFUs reports the first field in which two combinations differ: ID,
// pattern, signature, the bits of every estimate, and every occurrence
// (block, ops, weight).
func sameCFUs(got, want []*CFU) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d CFUs, want %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		switch {
		case g.ID != w.ID:
			return fmt.Errorf("CFU %d: ID %d, want %d", i, g.ID, w.ID)
		case g.Shape.String() != w.Shape.String():
			return fmt.Errorf("CFU %d: shape %s, want %s", i, g.Shape, w.Shape)
		case g.Shape.Signature() != w.Shape.Signature():
			return fmt.Errorf("CFU %d: signature differs", i)
		case math.Float64bits(g.Area) != math.Float64bits(w.Area) || g.Latency != w.Latency:
			return fmt.Errorf("CFU %d: area/latency %v/%d, want %v/%d", i, g.Area, g.Latency, w.Area, w.Latency)
		case math.Float64bits(g.SavedPerExec) != math.Float64bits(w.SavedPerExec):
			return fmt.Errorf("CFU %d: saved per exec %v, want %v", i, g.SavedPerExec, w.SavedPerExec)
		case math.Float64bits(g.Value) != math.Float64bits(w.Value):
			return fmt.Errorf("CFU %d: value %v, want %v", i, g.Value, w.Value)
		case len(g.Occurrences) != len(w.Occurrences):
			return fmt.Errorf("CFU %d: %d occurrences, want %d", i, len(g.Occurrences), len(w.Occurrences))
		}
		for k, o := range g.Occurrences {
			wo := w.Occurrences[k]
			if o.Block != wo.Block || !slices.Equal(o.Ops, wo.Ops) ||
				math.Float64bits(o.Weight) != math.Float64bits(wo.Weight) {
				return fmt.Errorf("CFU %d occurrence %d: %s %v, want %s %v", i, k, o.Block.Name, o.Ops, wo.Block.Name, wo.Ops)
			}
		}
	}
	return nil
}

// combineCounted combines res and returns the CFUs with the shapes the
// run built and reused.
func combineCounted(res *explore.Result, lib *hwlib.Library) (cfus []*CFU, built, reused int64) {
	tel := telemetry.New("test")
	cfus = Combine(res, lib, CombineOptions{Telemetry: tel})
	c := tel.Snapshot().Counters
	return cfus, c["combine.shapes.built"], c["combine.shapes.reused"]
}

// TestCombineWarmEqualsCold pins the warm-combine contract: combining
// candidates replayed from a corpus, whose shapes come from the corpus
// entries' shape indexes, gives the CFUs of combining a cold exploration,
// field by field. For every benchmark it fills a disk-backed corpus,
// replays it from memory, where the filling run built the indexes, and
// replays it again after a reopen, which builds them from decoded entries.
func TestCombineWarmEqualsCold(t *testing.T) {
	lib := hwlib.Default()
	names := workloads.Names()
	if testing.Short() {
		names = []string{"gsmdecode", "sha", "url"}
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			w, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := explore.DefaultConfig(lib)
			cold := explore.Explore(w.Program, cfg)
			want, built, reused := combineCounted(cold, lib)
			if n := int64(len(cold.Candidates)); built != n || reused != 0 {
				t.Fatalf("cold: %d shapes built, %d reused; want %d, 0", built, reused, n)
			}

			dir := t.TempDir()
			store, err := corpus.Open(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Corpus = store
			got, _, _ := combineCounted(explore.Explore(w.Program, cfg), lib)
			if err := sameCFUs(got, want); err != nil {
				t.Fatalf("filling run: %v", err)
			}
			for _, run := range []struct {
				name   string
				reopen bool
			}{{"in-memory", false}, {"reopened", true}} {
				if run.reopen {
					if err := store.Close(); err != nil {
						t.Fatal(err)
					}
					if store, err = corpus.Open(dir, 0); err != nil {
						t.Fatal(err)
					}
					defer store.Close()
					cfg.Corpus = store
				}
				warm := explore.Explore(w.Program, cfg)
				if warm.Stats.CorpusMisses != 0 {
					t.Fatalf("%s: replay missed %d blocks", run.name, warm.Stats.CorpusMisses)
				}
				got, built, reused := combineCounted(warm, lib)
				if err := sameCFUs(got, want); err != nil {
					t.Fatalf("%s: %v", run.name, err)
				}
				// Only a reopened corpus builds its indexes again.
				if n := int64(len(warm.Candidates)); run.reopen && (built != n || reused != 0) ||
					!run.reopen && (built != 0 || reused != n) {
					t.Errorf("%s: %d shapes built, %d reused of %d", run.name, built, reused, n)
				}
			}
		})
	}
}

// twinProgram holds two copies of gsmdecode's largest block: they have
// one corpus key, so one entry serves both in one combination.
func twinProgram(t *testing.T) *ir.Program {
	t.Helper()
	w, err := workloads.ByName("gsmdecode")
	if err != nil {
		t.Fatal(err)
	}
	big := w.Program.Blocks[0]
	for _, b := range w.Program.Blocks {
		if len(b.Ops) > len(big.Ops) {
			big = b
		}
	}
	p := ir.NewProgram("twins")
	for _, name := range []string{"left", "right"} {
		b := big.Clone()
		b.Name = name
		p.Blocks = append(p.Blocks, b)
	}
	return p
}

// TestCombineOneEntryTwice combines a program whose two blocks replay one
// corpus entry. The second block's candidates reuse the first's shapes,
// and every CFU counts an occurrence in each block.
func TestCombineOneEntryTwice(t *testing.T) {
	lib := hwlib.Default()
	p := twinProgram(t)
	cfg := explore.DefaultConfig(lib)
	cold := explore.Explore(p, cfg)
	want := Combine(cold, lib, CombineOptions{})

	store, err := corpus.Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Corpus = store
	fill := explore.Explore(p, cfg)
	if fill.Stats.CorpusMisses != 1 || fill.Stats.CorpusHits != 1 {
		t.Fatalf("filling run: %d hits, %d misses; want the second block to replay the first's entry",
			fill.Stats.CorpusHits, fill.Stats.CorpusMisses)
	}
	half := len(fill.Candidates) / 2
	if e := fill.Candidates[0].Entry; e == nil || fill.Candidates[half].Entry != e {
		t.Fatal("the two blocks' candidates do not name one corpus entry")
	}
	got, built, reused := combineCounted(fill, lib)
	if built != int64(half) || reused != int64(half) {
		t.Errorf("%d shapes built, %d reused; want %d each", built, reused, half)
	}
	if err := sameCFUs(got, want); err != nil {
		t.Fatal(err)
	}
	for _, c := range got {
		if len(c.Occurrences)%2 != 0 {
			t.Fatalf("%s: %d occurrences, want as many in each block", c.Name(), len(c.Occurrences))
		}
	}
}

// TestCombineSharedEntryConcurrent combines two replays of one corpus
// entry at once, before anything has built the entry's shape index, and
// analyzes both CFU lists at once. The lists share shapes, which are
// immutable, but no mutable state. Under -race this catches an index built
// twice or a CFU field shared between the runs.
func TestCombineSharedEntryConcurrent(t *testing.T) {
	lib := hwlib.Default()
	w, err := workloads.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	store, err := corpus.Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := explore.DefaultConfig(lib)
	cfg.Corpus = store
	explore.Explore(w.Program, cfg) // fills the corpus, builds no index

	var runs [2][]*CFU
	var built [2]int64
	var wg sync.WaitGroup
	for g := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := explore.Explore(w.Program, cfg)
			runs[g], built[g], _ = combineCounted(res, lib)
			AnalyzeRelationships(runs[g], lib)
		}()
	}
	wg.Wait()

	if built[0] > 0 && built[1] > 0 {
		t.Errorf("both runs built the entry's shape index (%d and %d shapes)", built[0], built[1])
	}
	a, b := runs[0], runs[1]
	if err := sameCFUs(a, b); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		x, y := a[i], b[i]
		switch {
		case x == y:
			t.Fatalf("CFU %d: both runs return one *CFU", i)
		case x.Shape != y.Shape:
			t.Fatalf("CFU %d: the runs hold different shapes of one class", i)
		case &x.Occurrences[0] == &y.Occurrences[0]:
			t.Fatalf("CFU %d: the runs share an occurrence list", i)
		case len(x.Variants) > 0 && &x.Variants[0] == &y.Variants[0]:
			t.Fatalf("CFU %d: the runs share a variant list", i)
		case len(x.Subsumes) > 0 && &x.Subsumes[0] == &y.Subsumes[0]:
			t.Fatalf("CFU %d: the runs share a subsumption list", i)
		}
	}
}
