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
	"io"
	"log"
	"os"

	"repro/internal/cfu"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/hdl"
	"repro/internal/hwlib"
	"repro/internal/synth"
	"repro/internal/telemetry"
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
	hwPath := flag.String("hwlib", "", "JSON hardware library, or the built-in name \"dsp16\" (16-bit-multiplier video calibration; default: the 0.18u calibration)")
	dumpHW := flag.Bool("dumphwlib", false, "print the built-in hardware library as JSON and exit")
	verilog := flag.String("verilog", "", "also emit the selected CFUs as Verilog to this path")
	trace := flag.String("trace", "", "write a structured telemetry dump (JSON) to this file; a per-stage summary goes to stderr")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	corpusDir := flag.String("corpus", "", "disk-backed exploration corpus directory: per-block results are replayed from and persisted to it across runs, with byte-identical output (\"\" = off)")
	corpusEntries := flag.Int("corpus-entries", 0, "in-memory corpus LRU capacity in block entries (0 = 4096)")
	flag.Parse()

	if *pprofAddr != "" {
		if err := telemetry.ServePprof(*pprofAddr); err != nil {
			log.Fatalf("pprof: %v", err)
		}
		log.Printf("pprof listening on %s", *pprofAddr)
	}
	var tel *telemetry.Registry
	if *trace != "" {
		tel = telemetry.New("iscgen")
	}

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
	cfg.Telemetry = tel
	cfg.Lib, err = hwlib.LoadOrDefault(openFile, *hwPath)
	if err != nil {
		log.Fatal(err)
	}
	var store *corpus.Corpus
	if *corpusDir != "" || *corpusEntries > 0 {
		store, err = corpus.Open(*corpusDir, *corpusEntries)
		if err != nil {
			log.Fatalf("corpus: %v", err)
		}
		cfg.Corpus = store
	}
	m, err := core.GenerateMDES(b.Program, cfg)
	if err != nil {
		log.Fatal(err)
	}
	// Corpus accounting goes to stderr: stdout must stay byte-identical
	// between cold and warm runs.
	if store != nil {
		s := store.Stats()
		fmt.Fprintf(os.Stderr, "corpus: %d hits, %d misses, %d entries (%d disk segments, %d bytes)\n",
			s.Hits, s.Misses, s.Entries, s.Segments, s.DiskBytes)
		if err := store.Close(); err != nil {
			log.Fatalf("corpus close: %v", err)
		}
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

	// The trace dump and summary both stay off stdout, which must remain
	// byte-identical with telemetry on or off.
	if tel != nil {
		if err := tel.WriteFile(*trace); err != nil {
			log.Fatal(err)
		}
		tel.WriteSummary(os.Stderr)
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

func openFile(path string) (io.ReadCloser, error) { return os.Open(path) }
