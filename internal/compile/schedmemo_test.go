package compile

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// customBlock is a load beside a custom op named like a selected CFU,
// joined by an add. The blocks built from two CustomInsts differ only in
// the unit's fields. Its latency moves the schedule's length, and so does
// its memory use: a unit that reads memory cannot issue beside the load.
func customBlock(ci *ir.CustomInst) *ir.Block {
	b := ir.NewBlock("hot", 100)
	x, y := b.Arg(ir.R(1)), b.Arg(ir.R(2))
	ld := b.Load(x)
	c := b.EmitCustom(ci, x, y).Out()
	b.Def(ir.R(3), b.Add(ld, b.Add(c, y)))
	return b
}

// fresh is what the memo must return for b: an unmemoized schedule.
func fresh(t *testing.T, b *ir.Block, m *machine.Desc, regs int) [2]int {
	t.Helper()
	s, stats, err := sched.ScheduleWithRegAlloc(b, m, regs)
	if err != nil {
		t.Fatal(err)
	}
	return [2]int{s.Length, stats.SpilledValues}
}

func TestScheduleMemoKey(t *testing.T) {
	const name = "cfu3<shl-and-add>"
	mach := machine.Default4Wide()
	wide := *mach
	wide.IssueWidth[machine.SlotMem] = 2
	renamed := *mach
	renamed.Name = "other"

	type input struct {
		label string
		b     *ir.Block
		m     *machine.Desc
		regs  int
	}
	// Every input needs an entry of its own. The latency, the memory use
	// and the second memory slot also change the schedule's length (3, 5,
	// 4 and 3 cycles for the first, second, fourth and fifth inputs), so a
	// shared entry would return a wrong length as well as a wrong count.
	base := &ir.CustomInst{Name: name, Latency: 1, NumOut: 1}
	mem := &ir.CustomInst{Name: name, Latency: 1, NumOut: 1, UsesMemory: true}
	inputs := []input{
		{"base", customBlock(base), mach, mach.IntRegs},
		{"latency 3", customBlock(&ir.CustomInst{Name: name, Latency: 3, NumOut: 1}), mach, mach.IntRegs},
		{"two results", customBlock(&ir.CustomInst{Name: name, Latency: 1, NumOut: 2}), mach, mach.IntRegs},
		{"reads memory", customBlock(mem), mach, mach.IntRegs},
		{"reads memory, two memory slots", customBlock(mem), &wide, mach.IntRegs},
		{"renamed machine", customBlock(base), &renamed, mach.IntRegs},
		{"three registers", customBlock(base), mach, 3},
	}

	tel := telemetry.New("test")
	sm := NewScheduleMemo()
	for _, in := range inputs {
		length, spilled, err := sm.schedule(in.b, in.m, in.regs, tel)
		if err != nil {
			t.Fatalf("%s: %v", in.label, err)
		}
		got := [2]int{length, spilled}
		if want := fresh(t, in.b, in.m, in.regs); got != want {
			t.Errorf("%s: memo returned length/spills %v, a fresh schedule %v", in.label, got, want)
		}
	}
	counters := tel.Snapshot().Counters
	if miss, hit := counters["memo.schedule.miss"], counters["memo.schedule.hit"]; miss != int64(len(inputs)) || hit != 0 {
		t.Errorf("memo.schedule miss/hit = %d/%d, want %d/0: an input hit another's entry", miss, hit, len(inputs))
	}
	for i, want := range []int{3, 5, 3, 4, 3, 3, 3} {
		if got := fresh(t, inputs[i].b, inputs[i].m, inputs[i].regs)[0]; got != want {
			t.Errorf("%s: schedule length %d, want %d", inputs[i].label, got, want)
		}
	}

	// Equal content hits, whatever the op IDs, the block name or the
	// machine description's address.
	same := customBlock(&ir.CustomInst{Name: name, Latency: 1, NumOut: 1})
	same.Name = "elsewhere"
	for _, op := range same.Ops {
		op.ID += 10
	}
	copied := *mach
	if _, _, err := sm.schedule(same, &copied, mach.IntRegs, tel); err != nil {
		t.Fatal(err)
	}
	if hit := tel.Snapshot().Counters["memo.schedule.hit"]; hit != 1 {
		t.Errorf("memo.schedule.hit = %d after an equal block, want 1", hit)
	}
}
