package cfu

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/explore"
	"repro/internal/hwlib"
	"repro/internal/workloads"
)

// combineSink keeps the benchmarked combinations' results live.
var combineSink []*CFU

// BenchmarkCombineWarm combines gsmdecode's candidates replayed from a warm
// in-memory corpus: the corpus entries' shape indexes are built before the
// timer, so every iteration reads shapes and lifts none. A regression that
// rebuilds shapes on replay shows up in B/op and allocs/op.
func BenchmarkCombineWarm(b *testing.B) {
	lib := hwlib.Default()
	w, err := workloads.ByName("gsmdecode")
	if err != nil {
		b.Fatal(err)
	}
	store, err := corpus.Open("", 0)
	if err != nil {
		b.Fatal(err)
	}
	cfg := explore.DefaultConfig(lib)
	cfg.Corpus = store
	Combine(explore.Explore(w.Program, cfg), lib, CombineOptions{}) // fills the corpus and its indexes
	res := explore.Explore(w.Program, cfg)
	if res.Stats.CorpusMisses != 0 {
		b.Fatalf("replay missed %d blocks", res.Stats.CorpusMisses)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		combineSink = Combine(res, lib, CombineOptions{})
	}
}
