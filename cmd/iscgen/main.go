// Command iscgen is the hardware compiler: it runs dataflow-graph
// exploration, candidate combination and CFU selection on one benchmark and
// emits the machine description (MDES) the software compiler consumes.
//
// Usage:
//
//	iscgen -bench blowfish -budget 15 -o blowfish.mdes.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/cfu"
	"repro/internal/core"
	"repro/internal/hdl"
	"repro/internal/hwlib"
	"repro/internal/synth"
	"repro/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("iscgen: ")
	bench := flag.String("bench", "", "benchmark name; one of: "+fmt.Sprint(workloads.Names()))
	asmPath := flag.String("asm", "", "read the program from an assembly file instead of -bench")
	synthSpec := flag.String("synth", "", "generate a seeded synthetic program instead of -bench/-asm; colon-separated key=value spec (e.g. seed=3:blocks=8:ops=512), \"default\" for the defaults")
	var cfg core.Config
	cfg.BindFlags(flag.CommandLine)
	flag.Float64Var(&cfg.Budget, "budget", 15, "CFU area budget in adder units")
	flag.TextVar(&cfg.SelectMode, "mode", cfu.GreedyRatio, "selection `heuristic`: greedy, value, or dp")
	out := flag.String("o", "", "output MDES path (default stdout)")
	flag.IntVar(&cfg.Constraints.MaxInputs, "maxin", 5, "max CFU input ports")
	flag.IntVar(&cfg.Constraints.MaxOutputs, "maxout", 3, "max CFU output ports")
	flag.IntVar(&cfg.Workers, "j", 1, "worker goroutines for block-level exploration (output is identical at every setting)")
	dumpHW := flag.Bool("dumphwlib", false, "print the built-in hardware library as JSON and exit")
	verilog := flag.String("verilog", "", "also emit the selected CFUs as Verilog to this path")
	var cli core.CLI
	cli.BindFlags(flag.CommandLine, core.CorpusFlags|core.HWLibFlag)
	flag.Parse()

	if *dumpHW {
		if err := hwlib.Default().WriteJSON(os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *bench == "" && *asmPath == "" && *synthSpec == "" {
		flag.Usage()
		os.Exit(2)
	}
	b, err := loadProgram(*bench, *asmPath, *synthSpec)
	if err != nil {
		log.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		log.Fatal(err)
	}
	if err := cli.Start("iscgen"); err != nil {
		log.Fatal(err)
	}
	cfg.Telemetry, cfg.Corpus, cfg.Lib = cli.Telemetry, cli.Corpus, cli.Lib
	m, err := core.GenerateMDES(b.Program, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Fprintf(os.Stderr, "%s (%s): %d CFUs, %.2f adders of %.0f budget\n",
		b.Name, b.Domain, len(m.CFUs), m.TotalArea, m.Budget)
	if m.Truncated {
		fmt.Fprintln(os.Stderr, "  note: exploration budget expired; CFUs were selected from the best-so-far candidate pool")
	}
	for _, c := range m.CFUs {
		fmt.Fprintf(os.Stderr, "  #%-2d %-40s area %6.2f  lat %d  est value %.0f  variants %d\n",
			c.Priority, c.Name, c.Area, c.Latency, c.EstimatedValue, len(c.Variants))
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := m.WriteJSON(w); err != nil {
		log.Fatal(err)
	}

	if *verilog != "" {
		f, err := os.Create(*verilog)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := hdl.EmitMDES(f, m, cfg.Lib); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote Verilog datapaths to %s\n", *verilog)
	}

	// Corpus accounting, the trace dump and its summary stay off stdout,
	// which must remain byte-identical cold or warm, traced or not.
	if err := cli.Close(); err != nil {
		log.Fatal(err)
	}
}

// loadProgram resolves the -bench / -asm / -synth flags to a benchmark.
func loadProgram(bench, asmPath, synthSpec string) (*workloads.Benchmark, error) {
	if synthSpec == "" {
		return workloads.Load(bench, asmPath)
	}
	if bench != "" || asmPath != "" {
		return nil, fmt.Errorf("give one of -bench, -asm or -synth, not several")
	}
	if synthSpec == "default" {
		synthSpec = ""
	}
	spec, err := synth.ParseSpec(synthSpec)
	if err != nil {
		return nil, err
	}
	p, err := synth.Generate(spec)
	if err != nil {
		return nil, err
	}
	return &workloads.Benchmark{
		Name: p.Name, Domain: "synthetic",
		Description: "generated from spec " + spec.String(), Program: p,
	}, nil
}
