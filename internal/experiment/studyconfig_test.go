package experiment

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/hwlib"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// TestStudiesHonourConfig runs each study that builds its own exploration
// under a non-default strategy and a non-default cost model. A study either
// refuses the setting with an error that names it, or every column it
// prints reflects the setting: each column that has a one-call oracle
// equals core.Customize under the same config, and every exploration the
// study runs records its span on the harness's registry.
func TestStudiesHonourConfig(t *testing.T) {
	const app = "djpeg"
	b, err := workloads.ByName(app)
	if err != nil {
		t.Fatal(err)
	}
	settings := []struct {
		name string
		set  func(*core.Config)
		// guide reports whether the guide-function studies accept it.
		guide bool
	}{
		{"improve", func(c *core.Config) { c.Strategy = explore.StrategyImprove }, false},
		{"uarch", func(c *core.Config) { c.CostModel = explore.CostUarch }, true},
	}
	for _, s := range settings {
		t.Run(s.name, func(t *testing.T) {
			harness := func() (*Harness, *telemetry.Registry) {
				h := NewHarness()
				s.set(&h.Config)
				h.Parallelism = 1
				h.Telemetry = telemetry.New("test")
				return h, h.Telemetry
			}
			speedup := func(cfg core.Config) float64 {
				t.Helper()
				s.set(&cfg)
				res, err := core.Customize(b.Program, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res.Report.Speedup
			}
			exploreSpans := func(tel *telemetry.Registry) int64 {
				for _, sp := range tel.Snapshot().Spans {
					if sp.Name == "explore" {
						return sp.Count
					}
				}
				return 0
			}
			native := speedup(core.Config{})

			h, tel := harness()
			mem, err := h.MemoryCFUStudy([]string{app}, 15)
			if err != nil {
				t.Fatal(err)
			}
			if got := mem[0].NoMem; got != native {
				t.Errorf("memcfu no-mem = %.4f, core.Customize = %.4f", got, native)
			}
			if got, want := mem[0].WithMem, speedup(core.Config{Lib: hwlib.MemoryEnabled(), Verify: true}); got != want {
				t.Errorf("memcfu with-mem = %.4f, core.Customize = %.4f", got, want)
			}
			if n := exploreSpans(tel); n != 2 {
				t.Errorf("memcfu recorded %d explore spans, want 2 (harness, memory library)", n)
			}

			h, tel = harness()
			lim, err := h.LimitStudy([]string{app})
			if err != nil {
				t.Fatal(err)
			}
			if got := lim[0].At15; got != native {
				t.Errorf("limit at-15 = %.4f, core.Customize = %.4f", got, native)
			}
			if lim[0].Unlimited < lim[0].At15 {
				t.Errorf("limit unlimited %.4f < at-15 %.4f", lim[0].Unlimited, lim[0].At15)
			}
			if n := exploreSpans(tel); n != 3 {
				t.Errorf("limit recorded %d explore spans, want 3 (harness, relaxed, base)", n)
			}

			h, _ = harness()
			st, fig3Err := h.Fig3(app, 2000)
			ab, ablateErr := h.GuideWeightAblation(app)
			if !s.guide {
				for study, err := range map[string]error{"Fig3": fig3Err, "GuideWeightAblation": ablateErr} {
					if err == nil || !strings.Contains(err.Error(), s.name) {
						t.Errorf("%s error = %v, want a refusal naming %q", study, err, s.name)
					}
				}
				return
			}
			if fig3Err != nil || ablateErr != nil {
				t.Fatalf("Fig3: %v; GuideWeightAblation: %v", fig3Err, ablateErr)
			}
			ecfg := core.Config{}.Normalize()
			s.set(&ecfg)
			gcfg := ecfg.ExploreConfig()
			gcfg.MaxExamined = 2000
			if want := explore.Explore(b.Program, gcfg).Stats.Examined; st.GuidedTotal != want {
				t.Errorf("Fig3 guided examined %d, explore under the same config %d", st.GuidedTotal, want)
			}
			// The even weights are the default guide, so that row is the
			// plain flow at the 15-adder point.
			if got := ab[0].Speedup; got != native {
				t.Errorf("guide ablation %s = %.4f, core.Customize = %.4f", ab[0].Name, got, native)
			}
		})
	}
}
