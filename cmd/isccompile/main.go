// Command isccompile is the software compiler: it compiles a benchmark
// against an MDES produced by iscgen (possibly for a different application)
// and reports cycle counts, replacements and speedup.
//
// Usage:
//
//	iscgen -bench blowfish -o bf.json
//	isccompile -bench rijndael -mdes bf.json -variants
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/mdes"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("isccompile: ")
	bench := flag.String("bench", "", "benchmark to compile")
	asmPath := flag.String("asm", "", "read the program from an assembly file instead of -bench")
	mdesPath := flag.String("mdes", "", "MDES file from iscgen (required)")
	variants := flag.Bool("variants", false, "enable subsumed-subgraph matching")
	classes := flag.Bool("classes", false, "enable opcode-class wildcard matching")
	verify := flag.Bool("verify", true, "verify transformed blocks in the functional simulator")
	trace := flag.String("trace", "", "write a structured telemetry dump (JSON) to this file; a per-stage summary goes to stderr")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.Parse()

	if (*bench == "" && *asmPath == "") || *mdesPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *pprofAddr != "" {
		if err := telemetry.ServePprof(*pprofAddr); err != nil {
			log.Fatalf("pprof: %v", err)
		}
		log.Printf("pprof listening on %s", *pprofAddr)
	}
	var tel *telemetry.Registry
	if *trace != "" {
		tel = telemetry.New("isccompile")
	}
	b, err := workloads.Load(*bench, *asmPath)
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Open(*mdesPath)
	if err != nil {
		log.Fatal(err)
	}
	m, err := mdes.ReadJSON(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}

	_, rep, err := core.CompileWith(b.Program, m, core.Config{
		UseVariants:      *variants,
		UseOpcodeClasses: *classes,
		Verify:           *verify,
		Telemetry:        tel,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s compiled on CFUs of %s (budget %.0f adders)\n", b.Name, m.Source, m.Budget)
	if rep.Truncated {
		fmt.Println("  note: MDES came from a truncated (anytime) exploration; speedup is a lower bound")
	}
	fmt.Printf("  %-14s %10s %10s %6s %8s\n", "block", "base cyc", "cfu cyc", "repl", "weight")
	for _, blk := range rep.Blocks {
		fmt.Printf("  %-14s %10d %10d %6d %8.0f\n",
			blk.Name, blk.BaseCycles, blk.CustomCycles, blk.Replacements, blk.Weight)
	}
	fmt.Printf("  weighted cycles: %.0f -> %.0f\n", rep.BaselineCycles, rep.CustomCycles)
	fmt.Printf("  replacements: %d exact, %d via subsumed variants\n",
		rep.ExactReplacements, rep.VariantReplacements)
	// Sorted so the report is deterministic run to run.
	names := make([]string, 0, len(rep.PerCFU))
	for name := range rep.PerCFU {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if n := rep.PerCFU[name]; n > 0 {
			fmt.Printf("    %-44s x%d\n", name, n)
		}
	}
	fmt.Printf("  speedup: %.3fx\n", rep.Speedup)

	// The trace dump and summary both stay off stdout, which must remain
	// byte-identical with telemetry on or off.
	if tel != nil {
		if err := tel.WriteFile(*trace); err != nil {
			log.Fatal(err)
		}
		tel.WriteSummary(os.Stderr)
	}
}
