package vliwsim

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Trace is the cycle-accurate record of one block execution.
type Trace struct {
	// Cycles is the number of cycles until the last result is available.
	Cycles int
	// IssuedPerSlot counts operations issued on each slot kind.
	IssuedPerSlot [4]int
	// PerCycle[i] lists the op indices issued in cycle i.
	PerCycle [][]int
	// IdleCycles counts cycles in which nothing issued (latency stalls).
	IdleCycles int
}

// Utilization returns the fraction of issue capacity used for slot k over
// the trace.
func (t *Trace) Utilization(m *machine.Desc, k machine.SlotKind) float64 {
	if t.Cycles == 0 || m.IssueWidth[k] == 0 {
		return 0
	}
	return float64(t.IssuedPerSlot[k]) / float64(t.Cycles*m.IssueWidth[k])
}

// Execute runs block b under schedule s on machine m against architectural
// state st. It returns an error if the schedule violates any machine
// constraint: slot overuse, an operand consumed before its producer's
// latency has elapsed, or memory operations issued out of dependence
// order. An optional telemetry registry receives the execution span and
// the cycle/issue counters.
func Execute(b *ir.Block, s *sched.Schedule, m *machine.Desc, st *sim.State, tels ...*telemetry.Registry) (*Trace, error) {
	var tel *telemetry.Registry
	if len(tels) > 0 {
		tel = tels[0]
	}
	defer tel.StartSpan("vliwsim.execute")()
	if len(s.Cycle) != len(b.Ops) {
		return nil, fmt.Errorf("vliwsim: schedule covers %d ops, block has %d", len(s.Cycle), len(b.Ops))
	}
	d := ir.Analyze(b)

	// Group ops by issue cycle.
	byCycle := map[int][]int{}
	maxCycle := 0
	for i, c := range s.Cycle {
		if c < 0 {
			return nil, fmt.Errorf("vliwsim: op %%%d has negative issue cycle", b.Ops[i].ID)
		}
		byCycle[c] = append(byCycle[c], i)
		if c > maxCycle {
			maxCycle = c
		}
	}

	// Validate dependences against latencies before executing.
	for i := range b.Ops {
		for _, p := range d.Preds[i] {
			// Data predecessors must have completed; pure ordering edges
			// (memory, terminator) only need an earlier issue cycle.
			isData := false
			for _, dp := range d.DataPreds[i] {
				if dp == p {
					isData = true
					break
				}
			}
			need := s.Cycle[p] + 1
			if isData {
				need = s.Cycle[p] + m.Latency(b.Ops[p])
			}
			if s.Cycle[i] < need {
				return nil, fmt.Errorf("vliwsim: op %%%d issues at cycle %d before dependence %%%d is ready (cycle %d)",
					b.Ops[i].ID, s.Cycle[i], b.Ops[p].ID, need)
			}
		}
	}

	tr := &Trace{}
	ex := sim.NewExec(st, len(b.Ops))
	for cycle := 0; cycle <= maxCycle; cycle++ {
		issued := byCycle[cycle]
		if len(issued) == 0 {
			tr.IdleCycles++
			tr.PerCycle = append(tr.PerCycle, nil)
			continue
		}
		sort.Ints(issued)
		var slotUse [4]int
		for _, i := range issued {
			op := b.Ops[i]
			for _, slot := range m.SlotsOf(op) {
				slotUse[slot]++
				if slotUse[slot] > m.IssueWidth[slot] {
					return nil, fmt.Errorf("vliwsim: cycle %d oversubscribes the %s slot", cycle, slot)
				}
				tr.IssuedPerSlot[slot]++
			}

			if err := ex.Step(op); err != nil {
				return nil, fmt.Errorf("vliwsim: cycle %d: %w", cycle, err)
			}
			if done := cycle + m.Latency(op); done > tr.Cycles {
				tr.Cycles = done
			}
		}
		tr.PerCycle = append(tr.PerCycle, issued)
	}
	ex.Commit()
	tel.Add("vliwsim.cycles", int64(tr.Cycles))
	tel.Add("vliwsim.idle_cycles", int64(tr.IdleCycles))
	for _, n := range tr.IssuedPerSlot {
		tel.Add("vliwsim.issued", int64(n))
	}
	return tr, nil
}

// Timeline renders the trace as a per-cycle issue diagram, one line per
// cycle with the ops issued in each slot:
//
//	cyc  int              mem          br
//	  0  %3 shr           %1 ldw       .
//	  1  .                .            .
//	  2  %5 cfu2<...>     .            .
func (t *Trace) Timeline(b *ir.Block, m *machine.Desc) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-4s %-22s %-22s %-12s\n", "cyc", "int", "mem", "br")
	for cycle, issued := range t.PerCycle {
		cells := map[machine.SlotKind][]string{}
		for _, i := range issued {
			op := b.Ops[i]
			name := op.Code.String()
			if op.Code == ir.Custom {
				name = op.Custom.Name
			}
			slot := m.SlotsOf(op)[0]
			cells[slot] = append(cells[slot], fmt.Sprintf("%%%d %s", op.ID, name))
		}
		cell := func(k machine.SlotKind) string {
			if len(cells[k]) == 0 {
				return "."
			}
			return strings.Join(cells[k], " ")
		}
		fmt.Fprintf(&sb, "%-4d %-22s %-22s %-12s\n", cycle,
			trunc(cell(machine.SlotInt), 22), trunc(cell(machine.SlotMem), 22), trunc(cell(machine.SlotBranch), 12))
	}
	return sb.String()
}

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "~"
}

// ProgramCycles schedules and executes every block of p (with the given
// register file size) and returns the profile-weighted cycle total plus the
// per-block traces. It cross-checks each trace length against the
// scheduler's analytic length and fails on any mismatch, so the speedups
// reported elsewhere are backed by executed cycles, not just schedule
// arithmetic. An optional telemetry registry is forwarded to Execute.
func ProgramCycles(p *ir.Program, m *machine.Desc, numRegs int, seed uint32, tels ...*telemetry.Registry) (float64, []*Trace, error) {
	var tel *telemetry.Registry
	if len(tels) > 0 {
		tel = tels[0]
	}
	total := 0.0
	var traces []*Trace
	for bi, b := range p.Blocks {
		nb, _, err := sched.Allocate(b, numRegs)
		if err != nil {
			return 0, nil, err
		}
		s := sched.List(nb, m)
		st := sim.NewState(seed + uint32(bi))
		tr, err := Execute(nb, s, m, st, tel)
		if err != nil {
			return 0, nil, fmt.Errorf("vliwsim: block %s: %w", b.Name, err)
		}
		if tr.Cycles != s.Length {
			return 0, nil, fmt.Errorf("vliwsim: block %s: executed %d cycles, scheduler claimed %d",
				b.Name, tr.Cycles, s.Length)
		}
		total += b.Weight * float64(tr.Cycles)
		traces = append(traces, tr)
	}
	return total, traces, nil
}
