package explore

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/hwlib"
	"repro/internal/ir"
)

// compareResults asserts two exploration results are identical: same
// candidates (set, block, costs, ports) in the same order, and the same
// aggregate statistics. Used to prove block-parallel exploration merges to
// the serial answer bit for bit.
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
	if got.Stats.Examined != want.Stats.Examined || got.Stats.Recorded != want.Stats.Recorded ||
		got.Stats.Truncated != want.Stats.Truncated {
		t.Fatalf("%s: stats differ: %+v vs %+v", label, got.Stats, want.Stats)
	}
	if len(got.Stats.BySize) != len(want.Stats.BySize) {
		t.Fatalf("%s: BySize sizes differ", label)
	}
	for k, v := range want.Stats.BySize {
		if got.Stats.BySize[k] != v {
			t.Fatalf("%s: BySize[%d] = %d, want %d", label, k, got.Stats.BySize[k], v)
		}
	}
}

// TestParallelExploreDeterminism runs the same multi-block program serially
// and with several worker counts (with and without a token pool, including
// an empty pool that denies every extra worker) and requires bit-identical
// candidates and stats.
func TestParallelExploreDeterminism(t *testing.T) {
	p := ir.NewProgram("par")
	p.Blocks = append(p.Blocks,
		feistelBlock(100), denseBlock(24), feistelBlock(10), denseBlock(16))

	run := func(workers int, spare *Tokens) *Result {
		cfg := DefaultConfig(hwlib.Default())
		cfg.Workers = workers
		cfg.Spare = spare
		return Explore(p, cfg)
	}
	want := run(1, nil)
	if len(want.Candidates) == 0 {
		t.Fatal("serial run found no candidates")
	}
	for _, w := range []int{2, 4, 8} {
		compareResults(t, want, run(w, nil), fmt.Sprintf("workers=%d", w))
	}
	compareResults(t, want, run(8, NewTokens(0)), "workers=8, empty token pool")
	compareResults(t, want, run(8, NewTokens(8)), "workers=8, full token pool")
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
// subgraph and that the extra bit never leaks into the caller's set.
func TestVisitedDupInsertAllocFree(t *testing.T) {
	vs := newVisitedSet(4)
	b := make(bitset, 4)
	b[0], b[2] = 0xDEADBEEF, 1
	if !vs.insert(b, -1) {
		t.Fatal("first insert not reported new")
	}
	if vs.insert(b, -1) {
		t.Fatal("duplicate insert reported new")
	}
	if got := testing.AllocsPerRun(200, func() {
		vs.insert(b, -1)
	}); got > 0 {
		t.Fatalf("duplicate insert allocates %.1f objects/op; want 0", got)
	}

	const extra = 64 + 7
	if !vs.insert(b, extra) {
		t.Fatal("set plus a new op not reported new")
	}
	if b.has(extra) {
		t.Fatal("insert wrote the extra op into the caller's set")
	}
	grown := b.clone()
	grown.set(extra)
	if vs.insert(grown, -1) {
		t.Fatal("built grown set not recognized as visited")
	}
	if vs.insert(b, 0) { // bit 0 is already in b: the same set as b itself
		t.Fatal("set plus a member op not recognized as visited")
	}
	if got := testing.AllocsPerRun(200, func() {
		vs.insert(b, extra)
	}); got > 0 {
		t.Fatalf("duplicate set-plus-op insert allocates %.1f objects/op; want 0", got)
	}
}
