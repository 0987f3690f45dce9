package experiment

import (
	"strings"
	"testing"

	"repro/internal/cfu"
	"repro/internal/workloads"
)

func TestNativeSweepBlowfish(t *testing.T) {
	h := NewHarness()
	h.Verify = true
	res, err := h.Sweep("blowfish", "blowfish", []float64{1, 4, 15})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Speedup must be monotone non-decreasing in budget and >= 1.
	prev := 0.0
	for _, p := range res.Points {
		if p.Speedup < 1 {
			t.Fatalf("speedup %v < 1 at budget %v", p.Speedup, p.Budget)
		}
		if p.Speedup < prev-1e-9 {
			t.Fatalf("speedup fell from %v to %v at budget %v", prev, p.Speedup, p.Budget)
		}
		prev = p.Speedup
	}
	// Encryption should benefit substantially at 15 adders.
	if res.Points[2].Speedup < 1.2 {
		t.Fatalf("blowfish speedup at 15 adders = %v, want >= 1.2", res.Points[2].Speedup)
	}
	if res.Label() != "blowfish" {
		t.Fatalf("label = %q", res.Label())
	}
}

func TestCrossCompileNeverBeatsNative(t *testing.T) {
	h := sharedHarness()
	nat, err := h.Sweep("rijndael", "rijndael", []float64{15})
	if err != nil {
		t.Fatal(err)
	}
	cross, err := h.Sweep("rijndael", "blowfish", []float64{15})
	if err != nil {
		t.Fatal(err)
	}
	if cross.Points[0].Speedup > nat.Points[0].Speedup+1e-9 {
		t.Fatalf("cross compile (%v) beat native (%v)",
			cross.Points[0].Speedup, nat.Points[0].Speedup)
	}
	if cross.Label() != "rijndael-blowfish" {
		t.Fatalf("label = %q", cross.Label())
	}
}

func TestExtensionStudyOrdering(t *testing.T) {
	h := NewHarness()
	rows, err := h.ExtensionStudy(workloads.DomainEncryption, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 { // 3 apps x 3 CFU sets
		t.Fatalf("rows = %d, want 9", len(rows))
	}
	for _, r := range rows {
		// Adding subsumed matching or wildcards must never hurt much; allow
		// small scheduling noise but catch real regressions.
		if r.ExactSubsumed < r.Exact*0.97 {
			t.Errorf("%s: +subsumed %v << exact %v", r.Label(), r.ExactSubsumed, r.Exact)
		}
		if r.Wildcard < r.Exact*0.97 {
			t.Errorf("%s: wildcard %v << exact %v", r.Label(), r.Wildcard, r.Exact)
		}
		if r.Exact < 1 || r.WildcardSubsumed < 1 {
			t.Errorf("%s: speedups below 1: %+v", r.Label(), r)
		}
	}
}

func TestLimitStudy(t *testing.T) {
	h := NewHarness()
	rows, err := h.LimitStudy([]string{"sha"})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Unlimited < r.At15-1e-9 {
		t.Fatalf("unlimited (%v) below constrained (%v)", r.Unlimited, r.At15)
	}
}

func TestFig3Stats(t *testing.T) {
	h := NewHarness()
	st, err := h.Fig3("blowfish", 50000)
	if err != nil {
		t.Fatal(err)
	}
	// Same budget: the naive search drowns in small candidates while the
	// guided search gets further. Check the curve at small sizes and the
	// maximum size reached.
	naive5, guided5 := st.CumulativeAtSize(5)
	if guided5 >= naive5 {
		t.Fatalf("guided examined %d size<=5 candidates, naive %d: guide did not prune",
			guided5, naive5)
	}
	if st.GuidedMaxSize <= st.NaiveMaxSize {
		t.Fatalf("guided max size %d <= naive max size %d: budget not spent on depth",
			st.GuidedMaxSize, st.NaiveMaxSize)
	}
	if len(st.SortedSizes()) == 0 {
		t.Fatal("no size histogram")
	}
}

func TestSelectionAblation(t *testing.T) {
	h := NewHarness()
	pts, err := h.SelectionAblation("sha", []float64{2, 15})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("points = %d, want 6", len(pts))
	}
	seen := map[cfu.SelectMode]bool{}
	for _, p := range pts {
		seen[p.Mode] = true
		if p.Speedup < 0.9 {
			t.Errorf("mode %v budget %v: speedup %v", p.Mode, p.Budget, p.Speedup)
		}
	}
	if len(seen) != 3 {
		t.Fatalf("modes seen = %d", len(seen))
	}
}

func TestGuideWeightAblation(t *testing.T) {
	h := NewHarness()
	rows, err := h.GuideWeightAblation("sha")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Examined == 0 {
			t.Errorf("%s explored nothing", r.Name)
		}
	}
}

func TestRenderers(t *testing.T) {
	h := NewHarness()
	res, err := h.Sweep("crc", "crc", []float64{1, 15})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	RenderSweeps(&sb, "Network native", []*SweepResult{res})
	if !strings.Contains(sb.String(), "crc") {
		t.Fatal("sweep render missing app")
	}
	sb.Reset()
	RenderSweeps(&sb, "empty", nil)
	if !strings.Contains(sb.String(), "no curves") {
		t.Fatal("empty render wrong")
	}

	st, err := h.Fig3("sha", 20000)
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	RenderFig3(&sb, st)
	if !strings.Contains(sb.String(), "Figure 3") {
		t.Fatal("fig3 render wrong")
	}

	rows, err := h.LimitStudy([]string{"crc"})
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	RenderLimit(&sb, rows)
	if !strings.Contains(sb.String(), "crc") {
		t.Fatal("limit render wrong")
	}

	pts, err := h.SelectionAblation("crc", []float64{4})
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	RenderAblation(&sb, "crc", pts)
	if !strings.Contains(sb.String(), "greedy-ratio") {
		t.Fatal("ablation render wrong")
	}

	sb.Reset()
	RenderMultiFunction(&sb, 15, []*MultiFunctionResult{{App: "a", CFUSource: "b", Single: 1.1, Multi: 1.2, MergedSelected: 1}})
	if !strings.Contains(sb.String(), "a-b") {
		t.Fatal("multifunction render wrong")
	}
	sb.Reset()
	RenderMemoryCFU(&sb, 15, []*MemoryCFUResult{{App: "x", NoMem: 1.1, WithMem: 1.3, MemCFUs: 2}})
	if !strings.Contains(sb.String(), "x") || !strings.Contains(sb.String(), "1.30") {
		t.Fatal("memcfu render wrong")
	}
	sb.Reset()
	RenderUnroll(&sb, []*UnrollResult{{App: "u", Factor: 2, Speedup: 1.5}})
	if !strings.Contains(sb.String(), "u") {
		t.Fatal("unroll render wrong")
	}
	RenderUnroll(&sb, nil) // empty input must not panic
	sb.Reset()
	guide, err := h.GuideWeightAblation("crc")
	if err != nil {
		t.Fatal(err)
	}
	RenderGuideAblation(&sb, "crc", guide)
	if !strings.Contains(sb.String(), "even") {
		t.Fatal("guide render wrong")
	}

	if !strings.Contains(Underline("Hi"), "==") {
		t.Fatal("underline wrong")
	}
}

func TestDomainSweepAllApps(t *testing.T) {
	// One cheap budget point across a whole domain, with verification, to
	// prove the full Figure 7 machinery works end to end.
	h := NewHarness()
	h.Verify = true
	native, err := h.Fig7Native(workloads.DomainAudio, []float64{15})
	if err != nil {
		t.Fatal(err)
	}
	if len(native) != 4 {
		t.Fatalf("audio curves = %d, want 4", len(native))
	}
	cross, err := h.Fig7Cross(workloads.DomainAudio, []float64{15})
	if err != nil {
		t.Fatal(err)
	}
	if len(cross) != 12 {
		t.Fatalf("audio cross curves = %d, want 12", len(cross))
	}
}

func TestMultiFunctionStudy(t *testing.T) {
	h := NewHarness()
	rows, err := h.MultiFunctionStudy(workloads.DomainEncryption, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(rows))
	}
	for _, r := range rows {
		// Admitting merged candidates must never meaningfully hurt.
		if r.Multi < r.Single*0.97 {
			t.Errorf("%s: multi %v << single %v", r.Label(), r.Multi, r.Single)
		}
	}
}

func TestMemoryCFUStudy(t *testing.T) {
	h := NewHarness()
	rows, err := h.MemoryCFUStudy([]string{"ipchains", "djpeg"}, 15)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Relaxing a restriction must never lose speedup.
		if r.WithMem < r.NoMem-1e-9 {
			t.Errorf("%s: with-mem %v below no-mem %v", r.App, r.WithMem, r.NoMem)
		}
	}
	// At least one of these memory-fragmented apps should select a
	// load-bearing CFU and gain from it.
	gained := false
	for _, r := range rows {
		if r.MemCFUs > 0 && r.WithMem > r.NoMem {
			gained = true
		}
	}
	if !gained {
		t.Error("no app gained from memory CFUs")
	}
}

func TestUnrollStudy(t *testing.T) {
	h := NewHarness()
	rows, err := h.UnrollStudy("url", []int{1, 4}, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].Speedup < rows[0].Speedup-1e-9 {
		t.Errorf("unrolling reduced speedup: %v -> %v", rows[0].Speedup, rows[1].Speedup)
	}
}

func TestUnknownDomainAndApp(t *testing.T) {
	h := NewHarness()
	if _, err := h.Fig7Native("bogus", []float64{1}); err == nil {
		t.Fatal("expected domain error")
	}
	if _, err := h.Sweep("bogus", "bogus", []float64{1}); err == nil {
		t.Fatal("expected app error")
	}
}
