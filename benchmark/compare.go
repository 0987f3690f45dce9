package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// minPairs is the fewest parent/change pairs a comparison accepts.
const minPairs = 10

// Verdicts of a comparison, per metric.
const (
	verdictGain       = "gain"
	verdictRegression = "regression"
	verdictUnresolved = "unresolved"
	verdictWithin     = "within bound"
	verdictLoss       = "loss"
	verdictNoChange   = "no clear change"
)

// readResults reads one result object per line; other lines are skipped,
// so a file of whole benchmark outputs works too.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// comparison is the outcome for one metric.
type comparison struct {
	verdict string
	// wins counts pairs where the change read better, losses where it read
	// worse; ties count for neither.
	wins, losses int
}

// compareMetric applies the benchmark's rules to paired samples of one
// metric (parent[i] and change[i] ran as the i-th pair):
//
//   - a gain needs the change to win at least nine tenths of the pairs and
//     the medians to differ by more than the parent's interquartile range;
//   - an end-to-end metric whose relative spread (interquartile range over
//     median) on either side exceeds its bound is unresolved, unless every
//     change run reads better than every parent run;
//   - otherwise an end-to-end metric whose median is worse than the
//     parent's by more than its bound is a regression.
//
// Per-layer metrics have no bound: they read as a gain, a loss (the gain
// rule reversed) or no clear change.
func compareMetric(m metric, parent, change []float64) comparison {
	var c comparison
	for i := range parent {
		switch {
		case better(m, change[i], parent[i]):
			c.wins++
		case better(m, parent[i], change[i]):
			c.losses++
		}
	}
	pq1, pmed, pq3 := quartiles(parent)
	cq1, cmed, cq3 := quartiles(change)
	separated := math.Abs(cmed-pmed) > pq3-pq1
	gain := separated && 10*c.wins >= 9*len(parent) && better(m, cmed, pmed)
	if m.bound == 0 {
		switch {
		case gain:
			c.verdict = verdictGain
		case separated && 10*c.losses >= 9*len(parent) && better(m, pmed, cmed):
			c.verdict = verdictLoss
		default:
			c.verdict = verdictNoChange
		}
		return c
	}
	allBetter := true
	for _, p := range parent {
		for _, x := range change {
			allBetter = allBetter && better(m, x, p)
		}
	}
	spread := math.Max(relSpread(pq1, pmed, pq3), relSpread(cq1, cmed, cq3))
	switch {
	case spread > m.bound && !allBetter:
		c.verdict = verdictUnresolved
	case worseBy(m, cmed, pmed) > m.bound:
		c.verdict = verdictRegression
	case gain:
		c.verdict = verdictGain
	default:
		c.verdict = verdictWithin
	}
	return c
}

func better(m metric, a, b float64) bool {
	if m.lowerIsBetter {
		return a < b
	}
	return a > b
}

// worseBy is how much worse change is than parent, as a share of parent.
func worseBy(m metric, change, parent float64) float64 {
	if parent == 0 {
		return 0
	}
	d := (change - parent) / math.Abs(parent)
	if !m.lowerIsBetter {
		d = -d
	}
	return d
}

func relSpread(q1, med, q3 float64) float64 {
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// runCompare prints a verdict per metric for two files of results of one
// workload, paired by position, and fails when an end-to-end metric
// regressed.
func runCompare(w io.Writer, parentPath, changePath string) error {
	parent, err := readResults(parentPath)
	if err != nil {
		return err
	}
	change, err := readResults(changePath)
	if err != nil {
		return err
	}
	if len(parent) != len(change) || len(parent) < minPairs {
		return fmt.Errorf("compare wants the same number of runs on both sides, at least %d pairs (got %d and %d)", minPairs, len(parent), len(change))
	}
	failedP, failedC := 0, 0
	for i := range parent {
		failedP += parent[i].Failed
		failedC += change[i].Failed
	}
	fmt.Fprintf(w, "%d pairs; failed operations: parent %d, change %d\n", len(parent), failedP, failedC)
	fmt.Fprintf(w, "%-26s %-6s %26s %26s %7s  %s\n", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	regressed := false
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		p, c, ok := samples(m.name, parent, change)
		if !ok {
			continue
		}
		cmp := compareMetric(m, p, c)
		if cmp.verdict == verdictGain && failedC > failedP {
			cmp.verdict = "gain void: more failures"
		}
		regressed = regressed || cmp.verdict == verdictRegression
		pq1, pmed, pq3 := quartiles(p)
		cq1, cmed, cq3 := quartiles(c)
		fmt.Fprintf(w, "%-26s %-6s %26s %26s %3d/%-3d  %s\n", m.name, m.unit,
			fmt.Sprintf("%.5g [%.5g, %.5g]", pmed, pq1, pq3),
			fmt.Sprintf("%.5g [%.5g, %.5g]", cmed, cq1, cq3),
			cmp.wins, len(p), cmp.verdict)
	}
	if regressed {
		return fmt.Errorf("an end-to-end metric regressed beyond its bound")
	}
	return nil
}

// samples extracts one metric from every result on both sides; ok is false
// when some run lacks it.
func samples(name string, parent, change []result) (p, c []float64, ok bool) {
	for i := range parent {
		pv, pok := parent[i].Metrics[name]
		cv, cok := change[i].Metrics[name]
		if !pok || !cok {
			return nil, nil, false
		}
		p, c = append(p, pv.Value), append(c, cv.Value)
	}
	return p, c, true
}
