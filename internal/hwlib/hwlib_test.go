package hwlib

import (
	"strings"
	"testing"

	"repro/internal/ir"
)

func TestDefaultCalibration(t *testing.T) {
	l := Default()
	// The cost unit is one 32-bit RCA adder.
	if l.Area(ir.Add) != 1.0 {
		t.Fatalf("adder area = %v, want 1.0", l.Area(ir.Add))
	}
	// Paper Figure 2: an adder is ~0.30 cycles at 300 MHz.
	if l.Delay(ir.Add) != 0.30 {
		t.Fatalf("adder delay = %v, want 0.30", l.Delay(ir.Add))
	}
	// Shifts by constant are wiring.
	if l.Delay(ir.Shl) != 0 {
		t.Fatalf("shift delay = %v, want 0", l.Delay(ir.Shl))
	}
	// Multiplier dwarfs the adder (paper: 8 multipliers >> 15-adder budget).
	if l.Area(ir.Mul) < 10 {
		t.Fatalf("multiplier area = %v, want >= 10 adders", l.Area(ir.Mul))
	}
	// Logical ops are cheap and fast: the best CFU material.
	if l.Area(ir.And) >= l.Area(ir.Add) || l.Delay(ir.And) >= l.Delay(ir.Add) {
		t.Fatal("logical ops must be cheaper and faster than the adder")
	}
}

func TestAllowedExclusions(t *testing.T) {
	l := Default()
	for _, c := range []ir.Opcode{ir.LoadW, ir.LoadB, ir.StoreW, ir.StoreH, ir.Br, ir.BrCond, ir.Ret} {
		if l.Allowed(c) {
			t.Errorf("%s must not be allowed inside a CFU", c)
		}
	}
	for _, c := range []ir.Opcode{ir.Add, ir.Xor, ir.Shl, ir.Select, ir.Mul} {
		if !l.Allowed(c) {
			t.Errorf("%s must be allowed inside a CFU", c)
		}
	}
}

func TestClasses(t *testing.T) {
	l := Default()
	if l.ClassOf(ir.Add) != ClassAddSub || l.ClassOf(ir.Sub) != ClassAddSub {
		t.Fatal("add/sub must share a class")
	}
	if l.ClassOf(ir.And) != l.ClassOf(ir.Xor) {
		t.Fatal("and/xor must share the logical class")
	}
	if l.ClassOf(ir.Add) == l.ClassOf(ir.And) {
		t.Fatal("add and and must be in different classes")
	}
	if l.ClassOf(ir.LoadW) != ClassNone {
		t.Fatal("memory ops have no class")
	}
	members := l.ClassMembers(ClassShift)
	if len(members) != 5 {
		t.Fatalf("shift class has %d members, want 5", len(members))
	}
	if l.ClassMembers(ClassNone) != nil {
		t.Fatal("ClassNone has no members")
	}
}

func TestClassCosts(t *testing.T) {
	l := Default()
	// A class node costs at least as much as its priciest member.
	if l.ClassArea(ClassAddSub) < l.Area(ir.Add) {
		t.Fatal("class area below max member area")
	}
	if l.ClassDelay(ClassCompare) < l.Delay(ir.CmpLtS) {
		t.Fatal("class delay below max member delay")
	}
}

func TestRoundHalf(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0.01, 0.5}, {0.49, 0.5}, {0.5, 0.5}, {0.51, 1.0}, {1.0, 1.0}, {1.2, 1.5}, {0, 0.5},
	}
	for _, c := range cases {
		if got := RoundHalf(c.in); got != c.want {
			t.Errorf("RoundHalf(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestCostModelInterface(t *testing.T) {
	var _ ir.CostModel = Default()
}

func TestDescribe(t *testing.T) {
	got := Default().Describe(ir.Xor)
	if !strings.Contains(got, "xor") || !strings.Contains(got, "logical") {
		t.Fatalf("describe: %q", got)
	}
}

func TestPaperAnecdoteANDplusSHL(t *testing.T) {
	// Paper: "candidate 4-6 ... can be executed back to back in 0.15
	// cycles" for an AND feeding a shift; growing toward a 0.3-cycle adder
	// yields 3.3 latency points. Our table must keep an AND+SHL chain well
	// under half an adder delay so the same dynamics hold.
	l := Default()
	chain := l.Delay(ir.And) + l.Delay(ir.Shl)
	if chain > 0.16 {
		t.Fatalf("AND+SHL chain delay = %v, want <= 0.16 cycles", chain)
	}
}

func TestDefaultReturnsIndependentCopies(t *testing.T) {
	want := Default().Signature()
	a := Default()
	a.entries[ir.Add] = Entry{Area: 99, Delay: 9, Allowed: false}
	a.classes[ir.Add] = ClassNone
	// The derived libraries adjust their own copy of the default table.
	if !MemoryEnabled().Allowed(ir.LoadW) || DSP16().Area(ir.Mul) != 4.5 {
		t.Fatal("derived libraries lost their adjustments")
	}
	b := Default()
	if b == a {
		t.Fatal("Default returned the same library twice")
	}
	if got := b.Signature(); got != want {
		t.Fatal("mutating one Default library changed the next one")
	}
	if b.Area(ir.Add) != 1.0 || b.ClassOf(ir.Add) != ClassAddSub || b.Allowed(ir.LoadW) || b.Area(ir.Mul) != 18.0 {
		t.Fatal("Default table was modified through an earlier copy")
	}
}
