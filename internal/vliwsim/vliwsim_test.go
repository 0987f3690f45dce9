package vliwsim

import (
	"maps"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func TestExecuteMatchesSchedulerOnAllBenchmarks(t *testing.T) {
	m := machine.Default4Wide()
	for _, bench := range workloads.All() {
		for _, b := range bench.Program.Blocks {
			s := sched.List(b, m)
			st := sim.NewState(5)
			tr, err := Execute(b, s, m, st)
			if err != nil {
				t.Fatalf("%s/%s: %v", bench.Name, b.Name, err)
			}
			if tr.Cycles != s.Length {
				t.Fatalf("%s/%s: executed %d cycles, schedule length %d",
					bench.Name, b.Name, tr.Cycles, s.Length)
			}
		}
	}
}

// TestExecuteValuesMatchFunctionalSim runs every block of every benchmark
// through both interpreters from the same state and compares everything a
// block can observably change: registers, the bytes it stores, the branch
// condition and the return value.
func TestExecuteValuesMatchFunctionalSim(t *testing.T) {
	m := machine.Default4Wide()
	for _, bench := range workloads.All() {
		for bi, b := range bench.Program.Blocks {
			stA := sim.NewState(uint32(77 + bi))
			stB := sim.NewState(uint32(77 + bi))
			for _, op := range b.Ops {
				for _, a := range op.Args {
					if a.Kind == ir.FromReg {
						v := uint32(a.Reg)*2654435761 + 12345
						stA.Regs[a.Reg], stB.Regs[a.Reg] = v, v
					}
				}
			}
			if _, err := Execute(b, sched.List(b, m), m, stA); err != nil {
				t.Fatalf("%s/%s: %v", bench.Name, b.Name, err)
			}
			if err := sim.RunBlock(b, stB); err != nil {
				t.Fatalf("%s/%s: %v", bench.Name, b.Name, err)
			}
			where := bench.Name + "/" + b.Name
			if !maps.Equal(stA.Regs, stB.Regs) {
				t.Errorf("%s: registers differ: vliwsim %v, sim %v", where, stA.Regs, stB.Regs)
			}
			if !maps.Equal(stA.Stores, stB.Stores) {
				t.Errorf("%s: stores differ: vliwsim wrote %d bytes, sim %d", where, len(stA.Stores), len(stB.Stores))
			}
			if stA.BranchTaken != stB.BranchTaken || stA.Returned != stB.Returned {
				t.Errorf("%s: branch/return vliwsim %d/%#x, sim %d/%#x", where,
					stA.BranchTaken, stA.Returned, stB.BranchTaken, stB.Returned)
			}
		}
	}
}

func TestExecuteRejectsSlotOveruse(t *testing.T) {
	m := machine.Default4Wide()
	b := ir.NewBlock("o", 1)
	b.Def(ir.R(2), b.Add(b.Arg(ir.R(1)), b.Imm(1)))
	b.Def(ir.R(3), b.Add(b.Arg(ir.R(1)), b.Imm(2)))
	// Hand-build an illegal schedule: both int ops in cycle 0.
	s := &sched.Schedule{Block: b, Cycle: []int{0, 0}, Length: 1}
	if _, err := Execute(b, s, m, sim.NewState(1)); err == nil || !strings.Contains(err.Error(), "oversubscribes") {
		t.Fatalf("err = %v", err)
	}
}

func TestExecuteRejectsLatencyViolation(t *testing.T) {
	m := machine.Default4Wide()
	b := ir.NewBlock("l", 1)
	ld := b.Load(b.Arg(ir.R(1))) // latency 2
	b.Def(ir.R(2), b.Add(ld, b.Imm(1)))
	s := &sched.Schedule{Block: b, Cycle: []int{0, 1}, Length: 2} // add too early
	if _, err := Execute(b, s, m, sim.NewState(1)); err == nil || !strings.Contains(err.Error(), "before dependence") {
		t.Fatalf("err = %v", err)
	}
}

func TestExecuteRejectsMemoryReorder(t *testing.T) {
	m := machine.Default4Wide()
	b := ir.NewBlock("m", 1)
	b.Store(b.Arg(ir.R(1)), b.Imm(1))
	v := b.Load(b.Arg(ir.R(1)))
	b.Def(ir.R(2), v)
	// Load scheduled with (not after) the store.
	s := &sched.Schedule{Block: b, Cycle: []int{0, 0}, Length: 2}
	if _, err := Execute(b, s, m, sim.NewState(1)); err == nil {
		t.Fatal("memory reorder not caught")
	}
}

func TestUtilizationAndIdle(t *testing.T) {
	m := machine.Default4Wide()
	b := ir.NewBlock("u", 1)
	ld := b.Load(b.Arg(ir.R(1)))        // cycle 0, latency 2
	b.Def(ir.R(2), b.Add(ld, b.Imm(1))) // cycle 2: cycle 1 idles
	s := sched.List(b, m)
	tr, err := Execute(b, s, m, sim.NewState(1))
	if err != nil {
		t.Fatal(err)
	}
	if tr.IdleCycles != 1 {
		t.Fatalf("idle cycles = %d, want 1", tr.IdleCycles)
	}
	if u := tr.Utilization(m, machine.SlotMem); u <= 0 || u > 1 {
		t.Fatalf("mem utilization = %v", u)
	}
	if got := tr.IssuedPerSlot[machine.SlotInt]; got != 1 {
		t.Fatalf("int issues = %d", got)
	}
}

func TestTimeline(t *testing.T) {
	m := machine.Default4Wide()
	b := ir.NewBlock("tl", 1)
	x := b.Arg(ir.R(1))
	ld := b.Load(x)
	b.Def(ir.R(2), b.Add(ld, b.Imm(1)))
	b.Branch()
	s := sched.List(b, m)
	tr, err := Execute(b, s, m, sim.NewState(1))
	if err != nil {
		t.Fatal(err)
	}
	out := tr.Timeline(b, m)
	for _, want := range []string{"cyc", "ldw", "add", "br", "."} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
	// The idle cycle while the load completes must render as an empty row.
	if !strings.Contains(out, "1    .") {
		t.Fatalf("idle cycle not shown:\n%s", out)
	}
}

func TestProgramCyclesMatchesCompileReport(t *testing.T) {
	// The executed weighted cycles of a customized program must equal the
	// compiler report's analytic count.
	bench, err := workloads.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Customize(bench.Program, core.Config{Budget: 15})
	if err != nil {
		t.Fatal(err)
	}
	m := machine.Default4Wide()
	gotBase, _, err := ProgramCycles(bench.Program, m, m.IntRegs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if gotBase != res.Report.BaselineCycles {
		t.Fatalf("executed baseline cycles %v != report %v", gotBase, res.Report.BaselineCycles)
	}
	gotCustom, traces, err := ProgramCycles(res.Program, m, m.IntRegs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if gotCustom != res.Report.CustomCycles {
		t.Fatalf("executed custom cycles %v != report %v", gotCustom, res.Report.CustomCycles)
	}
	if len(traces) != len(res.Program.Blocks) {
		t.Fatal("missing traces")
	}
}
