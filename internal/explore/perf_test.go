package explore

import (
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/hwlib"
	"repro/internal/ir"
	"repro/internal/synth"
	"repro/internal/workloads"
)

// compareResults asserts two exploration results are identical: same
// candidates (set, block, costs, ports) in the same order, and the same
// statistics apart from the freelist and hash-probe counters, which depend
// on how items were recycled. Used to prove parallel exploration gives the
// serial answer bit for bit.
func compareResults(t *testing.T, want, got *Result, label string) {
	t.Helper()
	if len(got.Candidates) != len(want.Candidates) {
		t.Fatalf("%s: %d candidates, want %d", label, len(got.Candidates), len(want.Candidates))
	}
	for i := range want.Candidates {
		w, g := want.Candidates[i], got.Candidates[i]
		if w.Block != g.Block || !slices.Equal(w.Ops, g.Ops) ||
			w.Area != g.Area || w.Latency != g.Latency ||
			w.Inputs != g.Inputs || w.Outputs != g.Outputs {
			t.Fatalf("%s: candidate %d differs: %v vs %v", label, i, g, w)
		}
	}
	ws, gs := want.Stats, got.Stats
	if gs.Examined != ws.Examined || gs.PrunedDirections != ws.PrunedDirections ||
		gs.Recorded != ws.Recorded || gs.Truncated != ws.Truncated || gs.TruncatedBy != ws.TruncatedBy ||
		gs.CorpusHits != ws.CorpusHits || gs.CorpusMisses != ws.CorpusMisses {
		t.Fatalf("%s: stats differ: %+v vs %+v", label, gs, ws)
	}
	if !maps.Equal(gs.BySize, ws.BySize) {
		t.Fatalf("%s: BySize %v, want %v", label, gs.BySize, ws.BySize)
	}
}

// TestParallelExploreDeterminism explores several programs serially and
// with 2, 3 and 8 workers and requires bit-identical candidates and stats:
// a small multi-block program, blowfish, the synthetic stress program cut
// by MaxExamined, and the uarch, naive and MaxCandidates variants of the
// search.
func TestParallelExploreDeterminism(t *testing.T) {
	multi := ir.NewProgram("par")
	multi.Blocks = append(multi.Blocks,
		feistelBlock(100), denseBlock(24), feistelBlock(10), denseBlock(16))
	blowfish, err := workloads.ByName("blowfish")
	if err != nil {
		t.Fatal(err)
	}
	stress, err := synth.Generate(synth.StressSpec())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		p    *ir.Program
		set  func(*Config)
	}{
		{"multi-block", multi, func(*Config) {}},
		{"blowfish", blowfish.Program, func(c *Config) { c.MaxExamined = 20000 }},
		{"synth-stress cut by MaxExamined", stress, func(c *Config) { c.MaxExamined = 4999 }},
		{"uarch", multi, func(c *Config) { c.CostModel = CostUarch }},
		{"naive", multi, func(c *Config) { c.Naive, c.MaxExamined = true, 3001 }},
		{"max-candidates", multi, func(c *Config) { c.MaxCandidates = 300 }},
	}
	for _, tc := range cases {
		run := func(workers int) *Result {
			cfg := DefaultConfig(hwlib.Default())
			tc.set(&cfg)
			cfg.Workers = workers
			return Explore(tc.p, cfg)
		}
		want := run(1)
		if len(want.Candidates) == 0 {
			t.Fatalf("%s: serial run found no candidates", tc.name)
		}
		for _, w := range []int{2, 3, 8} {
			compareResults(t, want, run(w), fmt.Sprintf("%s, workers=%d", tc.name, w))
		}
	}
}

// TestGrowReleaseAllocFree bounds the steady-state allocation cost of the
// explorer's hottest operations: pricing a growth direction with probe
// never allocates, and once the freelist is warm, growing a subgraph by one
// op and releasing it must not allocate either.
func TestGrowReleaseAllocFree(t *testing.T) {
	ctx := newBlockCtx(feistelBlock(10), hwlib.Default())
	w := ctx.seed(0)
	nb := -1
	for wi, wd := range w.nbrUnion {
		if wi < len(w.set) {
			wd &^= w.set[wi]
		}
		if wd != 0 {
			nb = wi<<6 + bits.TrailingZeros64(wd)
			break
		}
	}
	if nb < 0 {
		t.Fatal("seed op has no neighbor to grow into")
	}
	ctx.loadDepths(w)
	for i := 0; i < 4; i++ { // warm the freelist and slice capacities
		ctx.release(ctx.grow(w, nb))
	}
	if got := testing.AllocsPerRun(200, func() {
		ctx.release(ctx.grow(w, nb))
	}); got > 0 {
		t.Fatalf("grow+release allocates %.1f objects/op; want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		ctx.probe(w, nb)
	}); got > 0 {
		t.Fatalf("probe allocates %.1f objects/op; want 0", got)
	}
}

// TestVisitedDupInsertAllocFree checks that re-offering an already-visited
// subgraph to the visited set — the common case on dense blocks — is
// allocation-free, whether it arrives built or as a set plus the one op
// that would grow it. It also checks that the two spellings name the same
// subgraph, that the extra bit never leaks into the caller's set, and that
// an entry gives back the latency and ports it was stored with.
func TestVisitedDupInsertAllocFree(t *testing.T) {
	vs := newVisitedSet(4)
	b := make(bitset, 4)
	b[0], b[2] = 0xDEADBEEF, 1
	if !vs.insert(b, -1, price{}) {
		t.Fatal("first insert not reported new")
	}
	if vs.insert(b, -1, price{}) {
		t.Fatal("duplicate insert reported new")
	}
	if got := testing.AllocsPerRun(200, func() {
		vs.insert(b, -1, price{})
	}); got > 0 {
		t.Fatalf("duplicate insert allocates %.1f objects/op; want 0", got)
	}

	const extra = 64 + 7
	stored := price{area: 9, latency: 2.75, in: 7, out: 3}
	if !vs.insert(b, extra, stored) {
		t.Fatal("set plus a new op not reported new")
	}
	if b.has(extra) {
		t.Fatal("insert wrote the extra op into the caller's set")
	}
	grown := b.clone()
	grown.set(extra)
	if vs.insert(grown, -1, price{}) {
		t.Fatal("built grown set not recognized as visited")
	}
	idx, _ := vs.find(grown, -1)
	if got, want := vs.price(idx), (price{latency: 2.75, in: 7, out: 3}); got != want {
		t.Fatalf("stored price %+v, want %+v (area is not stored)", got, want)
	}
	if vs.insert(b, 0, price{}) { // bit 0 is already in b: the same set as b itself
		t.Fatal("set plus a member op not recognized as visited")
	}
	if got := testing.AllocsPerRun(200, func() {
		vs.insert(b, extra, price{})
	}); got > 0 {
		t.Fatalf("duplicate set-plus-op insert allocates %.1f objects/op; want 0", got)
	}
}
