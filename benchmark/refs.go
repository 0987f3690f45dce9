package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/experiment"
	"repro/internal/server"
	"repro/internal/workloads"
)

// fig7Native is the native Figure-7 table, byte-equal to `iscsweep -j 1`
// standard output at the commit that defined the benchmark.
//
//go:embed testdata/fig7_native.txt
var fig7Native []byte

// fig7Speedups holds every point of the same sweep at full precision, one
// "benchmark budget speedup" line each: the table rounds to two decimals.
//
//go:embed testdata/fig7_speedups.txt
var fig7Speedups string

// serviceDigests holds the SHA-256 of every /v1/customize and /v1/hdl body
// for the named-benchmark keys (16 benchmarks x budgets 1-15), one
// "kind benchmark budget digest" line each, from the same commit.
//
//go:embed testdata/service.sha256
var serviceDigests string

// references are the committed outputs every run is checked against.
type references struct {
	// fig7 maps a domain to its section of the Figure-7 table.
	fig7 map[string][]byte
	// speedups maps a sweep point (kind "sweep") to its speedup.
	speedups map[refKey]float64
	// digests maps a named key to its body's hex SHA-256.
	digests map[refKey]string
}

type refKey struct {
	kind, bench string
	budget      int
}

func loadReferences() (*references, error) {
	r := &references{fig7: map[string][]byte{}, speedups: map[refKey]float64{}, digests: map[refKey]string{}}
	const title = "Figure 7 (native): "
	for _, sec := range bytes.SplitAfter(fig7Native, []byte("\n\n")) {
		if len(sec) == 0 {
			continue
		}
		rest, ok := bytes.CutPrefix(sec, []byte(title))
		domain, _, _ := bytes.Cut(rest, []byte(" "))
		if !ok || len(domain) == 0 {
			return nil, fmt.Errorf("references: malformed Figure-7 section %q", sec)
		}
		r.fig7[string(domain)] = sec
	}
	for _, line := range strings.Split(strings.TrimSpace(fig7Speedups), "\n") {
		var k refKey
		var v float64
		if n, err := fmt.Sscanf(line, "%s %d %g", &k.bench, &k.budget, &v); n != 3 || err != nil {
			return nil, fmt.Errorf("references: malformed speedup line %q", line)
		}
		k.kind = "sweep"
		r.speedups[k] = v
	}
	for _, line := range strings.Split(strings.TrimSpace(serviceDigests), "\n") {
		f := strings.Fields(line)
		if len(f) != 4 {
			return nil, fmt.Errorf("references: malformed digest line %q", line)
		}
		b, err := strconv.Atoi(f[2])
		if err != nil {
			return nil, fmt.Errorf("references: malformed digest line %q", line)
		}
		r.digests[refKey{f[0], f[1], b}] = f[3]
	}
	return r, nil
}

// checkSpeedups compares every point of a sweep with the reference.
func (r *references) checkSpeedups(curves []*experiment.SweepResult) error {
	for _, c := range curves {
		for _, p := range c.Points {
			k := refKey{"sweep", c.App, int(p.Budget)}
			if want, ok := r.speedups[k]; !ok || p.Speedup != want {
				return fmt.Errorf("sweep %s budget %g: speedup %v, reference %v", c.App, p.Budget, p.Speedup, want)
			}
		}
	}
	return nil
}

// fig7For returns the reference table restricted to the given domains, in
// their order.
func (r *references) fig7For(domains []string) []byte {
	var out []byte
	for _, d := range domains {
		out = append(out, r.fig7[d]...)
	}
	return out
}

// checkBody compares a named key's body with its reference digest.
func (r *references) checkBody(kind, bench string, budget int, body []byte) error {
	want, ok := r.digests[refKey{kind, bench, budget}]
	if !ok {
		return fmt.Errorf("no reference for %s %s budget %d", kind, bench, budget)
	}
	if got := digest(body); got != want {
		return fmt.Errorf("%s %s budget %d: body digest %.12s, reference %.12s", kind, bench, budget, got, want)
	}
	return nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// writeReferences regenerates the reference files into dir: the Figure-7
// table and its full-precision points from a -j 1 sweep, and the body
// digests from an in-process iscd.
// Run it only at a commit whose outputs are known good.
func writeReferences(dir string) error {
	sw, err := runSweep(workloads.DomainNames(), nil, 1)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "fig7_native.txt"), sw.table, 0o644); err != nil {
		return err
	}
	var points strings.Builder
	for _, c := range sw.curves {
		for _, p := range c.Points {
			fmt.Fprintf(&points, "%s %g %s\n", c.App, p.Budget, strconv.FormatFloat(p.Speedup, 'g', -1, 64))
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "fig7_speedups.txt"), []byte(points.String()), 0o644); err != nil {
		return err
	}

	srv := server.New(server.Config{MaxConcurrent: nproc()})
	var keys []request
	for _, kind := range []string{"customize", "hdl"} {
		for _, b := range workloads.Names() {
			for budget := 1; budget <= 15; budget++ {
				keys = append(keys, request{kind: kind, bench: b, budget: budget})
			}
		}
	}
	lines := make([]string, len(keys))
	errs := make([]error, len(keys))
	fanOut(len(keys), func(_, i int) bool {
		k := keys[i]
		rec := serveRecorded(srv.Handler(), k)
		if rec.Code != http.StatusOK {
			errs[i] = fmt.Errorf("%v: status %d: %s", k, rec.Code, rec.Body.Bytes())
		}
		lines[i] = fmt.Sprintf("%s %s %d %s", k.kind, k.bench, k.budget, digest(rec.Body.Bytes()))
		return true
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return os.WriteFile(filepath.Join(dir, "service.sha256"), []byte(strings.Join(lines, "\n")+"\n"), 0o644)
}
