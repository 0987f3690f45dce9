// Command isccosim closes the hardware loop from the command line: it
// runs the full customization pipeline on one or all seed benchmarks,
// emits the selected CFUs as synthesizable Verilog, and differentially
// co-simulates every emitted datapath against the ir.EvalScalar reference
// semantics. A nonzero exit means the emitted hardware and the functional
// model disagree — the one bug class the rest of the test suite cannot
// rule out.
//
// Usage:
//
//	isccosim -all
//	isccosim -bench sha -trials 1024 -verilog sha.v -isa sha.isa
//	isccosim -all -multifunc -seed 99
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/cosim"
	"repro/internal/hdl"
	"repro/internal/hwlib"
	"repro/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("isccosim: ")
	bench := flag.String("bench", "", "benchmark to co-simulate (see -list)")
	all := flag.Bool("all", false, "co-simulate every seed benchmark")
	list := flag.Bool("list", false, "list benchmarks and exit")
	budget := flag.Float64("budget", 15, "area budget (adder-equivalents) for selection")
	multifunc := flag.Bool("multifunc", false, "merge near-identical CFUs into multi-function units")
	trials := flag.Int("trials", 256, "random trials per datapath (after the boundary sweep)")
	seed := flag.Int64("seed", 1, "base seed for the random stimulus")
	verilogOut := flag.String("verilog", "", "also write the emitted Verilog modules to this file")
	isaOut := flag.String("isa", "", "also write the RISC-V custom-opcode extension spec to this file")
	flag.Parse()

	if *list {
		for _, b := range workloads.All() {
			fmt.Printf("%-12s %s\n", b.Name, b.Domain)
		}
		return
	}
	var benches []*workloads.Benchmark
	switch {
	case *all:
		benches = workloads.All()
	case *bench != "":
		b, err := workloads.ByName(*bench)
		if err != nil {
			log.Fatal(err)
		}
		benches = []*workloads.Benchmark{b}
	default:
		flag.Usage()
		os.Exit(2)
	}
	if (*verilogOut != "" || *isaOut != "") && len(benches) != 1 {
		log.Fatal("-verilog/-isa need a single -bench")
	}

	lib := hwlib.Default()
	cfg := core.Config{Budget: *budget, Lib: lib, MultiFunction: *multifunc}
	failed := false
	for _, b := range benches {
		m, err := core.GenerateMDES(b.Program, cfg)
		if err != nil {
			log.Fatalf("%s: %v", b.Name, err)
		}
		datapaths, lowerErr := cosim.CheckMDES(m, lib, *trials, *seed)
		checked, mismatched := 0, 0
		for _, d := range datapaths {
			if d.Memory {
				continue
			}
			checked++
			if d.Err != nil {
				mismatched++
				failed = true
				fmt.Printf("FAIL %-10s %s variant %d\n%v\n", b.Name, m.CFUs[d.CFU].Name, d.Variant, d.Err)
			}
		}
		if lowerErr != nil {
			log.Fatalf("%s: %v", b.Name, lowerErr)
		}
		if mismatched == 0 {
			fmt.Printf("PASS %-10s %d CFUs, %d datapaths co-simulated, %d trials each\n",
				b.Name, len(m.CFUs), checked, *trials)
		}
		if *verilogOut != "" {
			if err := writeFile(*verilogOut, func(f io.Writer) error {
				return hdl.EmitMDES(f, m, lib)
			}); err != nil {
				log.Fatal(err)
			}
			log.Printf("wrote %s", *verilogOut)
		}
		if *isaOut != "" {
			spec, err := hdl.MapISA(m)
			if err != nil {
				log.Fatal(err)
			}
			if err := writeFile(*isaOut, spec.Write); err != nil {
				log.Fatal(err)
			}
			log.Printf("wrote %s", *isaOut)
		}
	}
	if failed {
		os.Exit(1)
	}
}

func writeFile(path string, emit func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
