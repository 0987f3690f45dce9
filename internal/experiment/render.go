package experiment

import (
	"fmt"
	"io"
	"strings"
)

// RenderSweeps prints Figure 7-style curves as a text table: one row per
// curve, one column per budget. Curves that failed (Err != nil) are
// skipped — the caller reports them separately — so healthy curves render
// byte-identically whether or not another benchmark failed. Truncated
// curves are marked with a label suffix.
func RenderSweeps(w io.Writer, title string, sweeps []*SweepResult) {
	fmt.Fprintf(w, "%s\n", title)
	if len(sweeps) == 0 {
		fmt.Fprintln(w, "  (no curves)")
		return
	}
	// Header budgets come from the first healthy curve: a failed curve's
	// points may never have been filled in.
	var header *SweepResult
	for _, s := range sweeps {
		if s.Err == nil {
			header = s
			break
		}
	}
	if header == nil {
		fmt.Fprintln(w, "  (all curves failed)")
		return
	}
	fmt.Fprintf(w, "  %-24s", "cost (adders):")
	for _, p := range header.Points {
		fmt.Fprintf(w, " %6.0f", p.Budget)
	}
	fmt.Fprintln(w)
	for _, s := range sweeps {
		if s.Err != nil {
			continue
		}
		label := s.Label()
		if s.Truncated {
			label += " [truncated]"
		}
		fmt.Fprintf(w, "  %-24s", label)
		for _, p := range s.Points {
			fmt.Fprintf(w, " %6.2f", p.Speedup)
		}
		fmt.Fprintln(w)
	}
}

// RenderExtensions prints a Figures 8/9-style table: the four matching
// modes for every app x CFU-set pair.
func RenderExtensions(w io.Writer, title string, rows []*ExtensionResult) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "  %-28s %8s %10s %9s %11s\n",
		"app-cfuset", "exact", "+subsumed", "wildcard", "wc+subsumed")
	for _, r := range rows {
		if r == nil {
			continue
		}
		fmt.Fprintf(w, "  %-28s %8.2f %10.2f %9.2f %11.2f\n",
			r.Label(), r.Exact, r.ExactSubsumed, r.Wildcard, r.WildcardSubsumed)
	}
}

// RenderLimit prints the limit study rows.
func RenderLimit(w io.Writer, rows []*LimitResult) {
	fmt.Fprintln(w, "Limit study: 15-adder speedup vs infinite area/ports")
	fmt.Fprintf(w, "  %-12s %10s %12s\n", "app", "at 15", "unlimited")
	for _, r := range rows {
		if r == nil {
			continue
		}
		fmt.Fprintf(w, "  %-12s %10.2f %12.2f\n", r.App, r.At15, r.Unlimited)
	}
}

// RenderFig3 prints the exploration statistics as the Figure 3 series.
func RenderFig3(w io.Writer, st *ExplorationStats) {
	fmt.Fprintf(w, "Figure 3: candidates examined for %s (budget %d each)\n", st.App, st.Budget)
	fmt.Fprintf(w, "  naive reached size %d; guided reached size %d\n",
		st.NaiveMaxSize, st.GuidedMaxSize)
	fmt.Fprintf(w, "  %-6s %10s %10s\n", "size", "naive", "guided")
	for _, s := range st.SortedSizes() {
		fmt.Fprintf(w, "  %-6d %10d %10d\n", s, st.NaiveBySize[s], st.GuidedBySize[s])
	}
}

// RenderAblation prints the selection-mode comparison.
func RenderAblation(w io.Writer, app string, pts []AblationPoint) {
	fmt.Fprintf(w, "Selection ablation for %s\n", app)
	byMode := map[string][]AblationPoint{}
	var order []string
	for _, p := range pts {
		k := p.Mode.String()
		if _, ok := byMode[k]; !ok {
			order = append(order, k)
		}
		byMode[k] = append(byMode[k], p)
	}
	if len(order) == 0 {
		return
	}
	fmt.Fprintf(w, "  %-14s", "cost:")
	for _, p := range byMode[order[0]] {
		fmt.Fprintf(w, " %6.0f", p.Budget)
	}
	fmt.Fprintln(w)
	for _, k := range order {
		fmt.Fprintf(w, "  %-14s", k)
		for _, p := range byMode[k] {
			fmt.Fprintf(w, " %6.2f", p.Speedup)
		}
		fmt.Fprintln(w)
	}
}

// RenderGuideAblation prints the guide-weight study.
func RenderGuideAblation(w io.Writer, app string, rows []*GuideAblation) {
	fmt.Fprintf(w, "Guide-function weight ablation for %s (15-adder point)\n", app)
	fmt.Fprintf(w, "  %-18s %10s %9s\n", "weights", "examined", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-18s %10d %9.2f\n", r.Name, r.Examined, r.Speedup)
	}
}

// RenderMultiFunction prints the multi-function CFU study.
func RenderMultiFunction(w io.Writer, budget float64, rows []*MultiFunctionResult) {
	fmt.Fprintf(w, "Multi-function CFUs at the %.0f-adder point (paper's future work)\n", budget)
	fmt.Fprintf(w, "  %-24s %14s %14s %8s\n", "app-cfuset", "single-func", "multi-func", "merged")
	for _, r := range rows {
		if r == nil {
			continue
		}
		fmt.Fprintf(w, "  %-24s %14.2f %14.2f %8d\n", r.Label(), r.Single, r.Multi, r.MergedSelected)
	}
}

// RenderMemoryCFU prints the relaxed-memory study.
func RenderMemoryCFU(w io.Writer, budget float64, rows []*MemoryCFUResult) {
	fmt.Fprintf(w, "Relaxed memory restriction at the %.0f-adder point (paper's future work)\n", budget)
	fmt.Fprintf(w, "  %-12s %9s %9s %9s\n", "app", "no-mem", "with-mem", "mem CFUs")
	for _, r := range rows {
		if r == nil {
			continue
		}
		fmt.Fprintf(w, "  %-12s %9.2f %9.2f %9d\n", r.App, r.NoMem, r.WithMem, r.MemCFUs)
	}
}

// RenderUnroll prints the unrolling study.
func RenderUnroll(w io.Writer, rows []*UnrollResult) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "Unrolling study for %s: CFU speedup vs unroll factor\n", rows[0].App)
	fmt.Fprintf(w, "  %-8s %9s\n", "factor", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-8d %9.2f\n", r.Factor, r.Speedup)
	}
}

// Underline returns title text underlined with '=' for section headers.
func Underline(title string) string {
	return title + "\n" + strings.Repeat("=", len(title))
}
