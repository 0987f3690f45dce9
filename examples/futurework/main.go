// Future work, implemented: the paper's conclusion proposes relaxing the
// memory restriction and incorporating multi-function CFUs into selection.
// This example runs both extensions on a benchmark, verifies correctness in
// the functional simulator, and dumps the selected units as Verilog.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/hdl"
	"repro/internal/hwlib"
	"repro/internal/workloads"
)

func main() {
	log.SetFlags(0)
	bench, err := workloads.ByName("ipchains")
	if err != nil {
		log.Fatal(err)
	}

	// Baseline: the paper's restrictions (no memory ops in CFUs).
	base, err := core.Customize(bench.Program, core.Config{Budget: 15, Verify: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s under the paper's restrictions:       %.2fx\n", bench.Name, base.Report.Speedup)

	// Extension 1: multi-function CFUs in the candidate pool.
	multi, err := core.Customize(bench.Program, core.Config{Budget: 15, MultiFunction: true, Verify: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s with multi-function candidates:       %.2fx\n", bench.Name, multi.Report.Speedup)

	// Extension 2: loads allowed inside CFUs (memory-enabled library).
	mem, err := core.Customize(bench.Program, core.Config{Lib: hwlib.MemoryEnabled(), Budget: 15, Verify: true})
	if err != nil {
		log.Fatal(err)
	}
	memCFUs := 0
	for i := range mem.MDES.CFUs {
		if mem.MDES.CFUs[i].Shape.UsesMemory() {
			memCFUs++
		}
	}
	fmt.Printf("%s with loads allowed inside CFUs:       %.2fx (%d load-bearing units, all verified)\n",
		bench.Name, mem.Report.Speedup, memCFUs)

	// Hand the ALU-only units to a hardware team.
	f, err := os.Create("ipchains_cfus.v")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := hdl.EmitMDES(f, base.MDES, hwlib.Default()); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwrote ipchains_cfus.v with the selected datapaths")
}
