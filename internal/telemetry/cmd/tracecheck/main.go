// Command tracecheck validates a telemetry trace dump: it must parse as a
// Snapshot and carry the fields the pipeline is expected to record —
// per-stage spans, memo-cache counters, and worker-pool statistics. CI
// runs it against the trace from a short sweep.
//
// Usage:
//
//	iscsweep -trace out.json && tracecheck out.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracecheck: ")
	flag.Parse()
	if flag.NArg() != 1 {
		log.Fatal("usage: tracecheck trace.json")
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	s, err := telemetry.ReadJSON(f)
	if err != nil {
		log.Fatal(err)
	}

	if s.Tool == "" {
		log.Fatal("trace has no tool name")
	}
	if s.WallNS <= 0 {
		log.Fatalf("trace wall time %d is not positive", s.WallNS)
	}
	spans := make(map[string]bool, len(s.Spans))
	for _, sp := range s.Spans {
		if sp.Count <= 0 || sp.WallNS < 0 || sp.MinNS > sp.MaxNS {
			log.Fatalf("span %q is malformed: %+v", sp.Name, sp)
		}
		spans[sp.Name] = true
	}
	for _, want := range []string{"explore", "combine", "select", "compile"} {
		if !spans[want] {
			log.Fatalf("trace is missing the %q stage span", want)
		}
	}
	// A program registered up front (iscsweep -synth) is never loaded, so
	// its benchmark memo records only hits; the memos below it must miss
	// at least once.
	_, hit := s.Counters["memo.benchmark.hit"]
	_, miss := s.Counters["memo.benchmark.miss"]
	if !hit && !miss {
		log.Fatal("trace is missing the memo.benchmark counters")
	}
	for _, want := range []string{
		"memo.candidates.miss", "memo.compile.miss", "memo.schedule.miss",
		"pool.busy_ns", "pool.wait_ns", "pool.capacity_ns", "pool.jobs",
	} {
		if _, ok := s.Counters[want]; !ok {
			log.Fatalf("trace is missing counter %q", want)
		}
	}
	if busy, wait := s.Counters["pool.busy_ns"], s.Counters["pool.wait_ns"]; busy+wait > s.Counters["pool.capacity_ns"] {
		log.Fatalf("pool busy %d plus wait %d exceeds capacity %d",
			busy, wait, s.Counters["pool.capacity_ns"])
	}
	if _, ok := s.Gauges["pool.workers"]; !ok {
		log.Fatal("trace is missing the pool.workers gauge")
	}
	fmt.Printf("tracecheck: %s ok: %d spans, %d counters, %d gauges\n",
		s.Tool, len(s.Spans), len(s.Counters), len(s.Gauges))
}
