// Command iscload is an open-loop workload generator for iscd and
// isccluster: arrivals are Poisson at each spec's rate and never wait for
// completions, so the service feels real overload instead of the
// self-throttling a closed loop would apply.
//
// Usage:
//
//	iscload -url http://localhost:9090 \
//	        -spec slo=gold,rate=20,n=200,bench=crc+sha-x16 \
//	        -spec slo=bronze,rate=50,n=500 \
//	        -seed 1 -label healthy -o report.json
//
// Each -spec is one client class; all run concurrently. The report gives
// p50/p99/p999 latency, cache-hit, truncation, shed, retry, and failover
// counts per SLO class, as JSON (-o) and a human summary on stderr.
//
// -fail-errors CLASS exits nonzero when that class saw any 5xx or
// transport error — the CI hook for "gold never fails while replicas
// die".
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/loadgen"
)

type specList []loadgen.Spec

func (s *specList) String() string { return fmt.Sprintf("%d specs", len(*s)) }

func (s *specList) Set(v string) error {
	spec, err := loadgen.ParseSpec(v)
	if err != nil {
		return err
	}
	*s = append(*s, spec)
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("iscload: ")
	url := flag.String("url", "http://localhost:8080", "target service base URL (an iscd or isccluster)")
	var specs specList
	flag.Var(&specs, "spec", "client class spec (repeatable): slo=gold,rate=20,n=200[,bench=crc+sha-x16|all][,budget=F][,deadline_ms=N][,name=S]")
	seed := flag.Int64("seed", 1, "rng seed for arrival schedules and benchmark picks")
	out := flag.String("o", "", "write the JSON report to this file (default stdout)")
	label := flag.String("label", "", "tag the report (e.g. healthy, degraded)")
	timeout := flag.Duration("timeout", 0, "per-request round-trip bound (0 = 120s)")
	failErrors := flag.String("fail-errors", "", "exit 1 if this SLO class (gold/silver/bronze) saw any error")
	flag.Parse()

	if len(specs) == 0 {
		log.Fatal("at least one -spec is required (see -h)")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	runner := &loadgen.Runner{Target: *url, Specs: specs, Seed: *seed, Timeout: *timeout}
	start := time.Now()

	report, err := runner.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	report.Label = *label
	writeSummary(report, time.Since(start))

	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	enc = append(enc, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			log.Fatal(err)
		}
	} else {
		os.Stdout.Write(enc)
	}

	for _, c := range report.Classes {
		if c.Class == *failErrors && c.Errors > 0 {
			log.Fatalf("class %s saw %d errors", c.Class, c.Errors)
		}
	}
}

func writeSummary(r *loadgen.Report, wall time.Duration) {
	fmt.Fprintf(os.Stderr, "iscload: %d requests to %s in %.1fs\n", r.Sent, r.Target, wall.Seconds())
	rows := append([]loadgen.ClassStats{r.All}, r.Classes...)
	fmt.Fprintf(os.Stderr, "%-8s %6s %6s %6s %6s %6s %6s %6s %7s %7s %8s %8s %8s\n",
		"class", "count", "ok", "err", "shed", "trunc", "cache", "fail", "corpus+", "corpus-", "p50ms", "p99ms", "p999ms")
	for _, c := range rows {
		fmt.Fprintf(os.Stderr, "%-8s %6d %6d %6d %6d %6d %6d %6d %7d %7d %8.1f %8.1f %8.1f\n",
			c.Class, c.Count, c.OK, c.Errors, c.Shed, c.Truncated, c.CacheHits, c.Failovers,
			c.CorpusHits, c.CorpusMisses, c.P50MS, c.P99MS, c.P999MS)
	}
}
