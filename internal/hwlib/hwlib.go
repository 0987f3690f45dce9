package hwlib

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sync"

	"repro/internal/ir"
)

// Entry is one hardware library row.
type Entry struct {
	// Area in 32-bit ripple-carry adder units.
	Area float64
	// Delay as a fraction of the machine clock cycle.
	Delay float64
	// Allowed reports whether the opcode may be included in a CFU at all.
	// Memory and control ops are excluded per the paper's assumptions.
	Allowed bool
}

// Library provides cost estimates and CFU-eligibility for every opcode.
// It implements ir.CostModel. The zero value is unusable; use Default or
// New.
type Library struct {
	entries [ir.MaxOpcode]Entry
	classes [ir.MaxOpcode]Class
}

// Class groups opcodes whose hardware implementations are similar enough to
// share a CFU node via the paper's "opcode class" wildcard generalization
// (e.g. ADD and SUB form a class; the logical operations form another).
type Class uint8

// Opcode classes for wildcard generalization.
const (
	ClassNone    Class = iota // not generalizable
	ClassAddSub               // add, sub, rsb
	ClassLogical              // and, or, xor, bic, mvn
	ClassShift                // shl, shr, sar, rotl, rotr
	ClassCompare              // all comparisons
	ClassExtend               // sext/zext byte/half
	ClassMul                  // mul
	ClassSelect               // select
)

func (c Class) String() string {
	switch c {
	case ClassAddSub:
		return "addsub"
	case ClassLogical:
		return "logical"
	case ClassShift:
		return "shift"
	case ClassCompare:
		return "compare"
	case ClassExtend:
		return "extend"
	case ClassMul:
		return "mul"
	case ClassSelect:
		return "select"
	}
	return "none"
}

// New builds a library from an explicit entry table. Opcodes absent from
// the map are disallowed in CFUs with zero area/delay.
func New(entries map[ir.Opcode]Entry, classes map[ir.Opcode]Class) *Library {
	l := &Library{}
	for c, e := range entries {
		l.entries[c] = e
	}
	for c, cl := range classes {
		l.classes[c] = cl
	}
	return l
}

// Default returns the 0.18µ-calibrated library described in the package
// comment. Each call returns a fresh copy of a table built once, so a
// caller may adjust its copy without affecting anyone else's.
func Default() *Library {
	l := *defaultLib()
	return &l
}

// defaultLib builds the Default table on first use.
var defaultLib = sync.OnceValue(func() *Library {
	e := map[ir.Opcode]Entry{
		ir.Add: {Area: 1.00, Delay: 0.30, Allowed: true},
		ir.Sub: {Area: 1.00, Delay: 0.30, Allowed: true},
		ir.Rsb: {Area: 1.00, Delay: 0.30, Allowed: true},
		ir.Mul: {Area: 18.0, Delay: 1.60, Allowed: true},
		// Divide/remainder: iterative units, never profitable inside a CFU.
		ir.Div: {Area: 30.0, Delay: 8.0, Allowed: false},
		ir.Rem: {Area: 30.0, Delay: 8.0, Allowed: false},

		ir.And:    {Area: 0.12, Delay: 0.075, Allowed: true},
		ir.Or:     {Area: 0.12, Delay: 0.075, Allowed: true},
		ir.Xor:    {Area: 0.15, Delay: 0.075, Allowed: true},
		ir.AndNot: {Area: 0.14, Delay: 0.075, Allowed: true},
		ir.Not:    {Area: 0.06, Delay: 0.038, Allowed: true},

		// Shifts: the explorer sees shift-by-constant as near-free wiring;
		// a general barrel shifter costs real area. The table keys on the
		// opcode only, so we charge the wiring cost here and let variable
		// shifts remain rare in kernels (as they are in the benchmarks).
		ir.Shl:  {Area: 0.02, Delay: 0.0, Allowed: true},
		ir.Shr:  {Area: 0.02, Delay: 0.0, Allowed: true},
		ir.Sar:  {Area: 0.02, Delay: 0.0, Allowed: true},
		ir.Rotl: {Area: 0.02, Delay: 0.0, Allowed: true},
		ir.Rotr: {Area: 0.02, Delay: 0.0, Allowed: true},

		ir.CmpEq:  {Area: 0.40, Delay: 0.19, Allowed: true},
		ir.CmpNe:  {Area: 0.40, Delay: 0.19, Allowed: true},
		ir.CmpLtS: {Area: 0.75, Delay: 0.26, Allowed: true},
		ir.CmpLeS: {Area: 0.75, Delay: 0.26, Allowed: true},
		ir.CmpLtU: {Area: 0.75, Delay: 0.26, Allowed: true},
		ir.CmpLeU: {Area: 0.75, Delay: 0.26, Allowed: true},

		ir.Select: {Area: 0.30, Delay: 0.11, Allowed: true},

		ir.SextB: {Area: 0.01, Delay: 0.0, Allowed: true},
		ir.SextH: {Area: 0.01, Delay: 0.0, Allowed: true},
		ir.ZextB: {Area: 0.01, Delay: 0.0, Allowed: true},
		ir.ZextH: {Area: 0.01, Delay: 0.0, Allowed: true},

		ir.Move: {Area: 0.01, Delay: 0.0, Allowed: true},

		// Memory and control flow: excluded from CFUs per §5 of the paper.
		ir.LoadW:  {Area: 0, Delay: 0, Allowed: false},
		ir.LoadB:  {Area: 0, Delay: 0, Allowed: false},
		ir.LoadH:  {Area: 0, Delay: 0, Allowed: false},
		ir.StoreW: {Area: 0, Delay: 0, Allowed: false},
		ir.StoreB: {Area: 0, Delay: 0, Allowed: false},
		ir.StoreH: {Area: 0, Delay: 0, Allowed: false},
		ir.Br:     {Area: 0, Delay: 0, Allowed: false},
		ir.BrCond: {Area: 0, Delay: 0, Allowed: false},
		ir.Ret:    {Area: 0, Delay: 0, Allowed: false},

		ir.FAdd: {Area: 4.0, Delay: 0.9, Allowed: false},
		ir.FSub: {Area: 4.0, Delay: 0.9, Allowed: false},
		ir.FMul: {Area: 20.0, Delay: 1.8, Allowed: false},
	}
	cl := map[ir.Opcode]Class{
		ir.Add: ClassAddSub, ir.Sub: ClassAddSub, ir.Rsb: ClassAddSub,
		ir.And: ClassLogical, ir.Or: ClassLogical, ir.Xor: ClassLogical,
		ir.AndNot: ClassLogical, ir.Not: ClassNone, // mvn is unary; keep it out of the binary class
		ir.Shl: ClassShift, ir.Shr: ClassShift, ir.Sar: ClassShift,
		ir.Rotl: ClassShift, ir.Rotr: ClassShift,
		ir.CmpEq: ClassCompare, ir.CmpNe: ClassCompare,
		ir.CmpLtS: ClassCompare, ir.CmpLeS: ClassCompare,
		ir.CmpLtU: ClassCompare, ir.CmpLeU: ClassCompare,
		ir.SextB: ClassExtend, ir.SextH: ClassExtend,
		ir.ZextB: ClassExtend, ir.ZextH: ClassExtend,
		ir.Mul:    ClassMul,
		ir.Select: ClassSelect,
	}
	return New(e, cl)
})

// MemoryEnabled returns the default library with load operations allowed
// inside CFUs — the paper's proposed relaxation of the memory restriction.
// A load contributes the cache access time (two cycles on the baseline
// machine) to the unit's pipelined latency, plus the port logic area; the
// unit then also occupies the memory issue slot. Stores stay excluded:
// a CFU must not hold architecturally visible state mid-flight.
func MemoryEnabled() *Library {
	l := Default()
	for _, c := range []ir.Opcode{ir.LoadW, ir.LoadB, ir.LoadH} {
		l.entries[c] = Entry{Area: 0.30, Delay: 2.0, Allowed: true}
	}
	return l
}

// DSP16 returns the default library with the multiplier swapped for a
// 16x16-bit DSP-style unit: a quarter of the 32-bit array's area at just
// over a cycle of delay, so a standalone multiply still takes two issue
// cycles but folds into one inside a chained CFU. This is the calibration
// the video/vision workloads assume — pixel and coefficient operands are
// at most 16 bits wide, which is what lets a BiRISCV-style MADD custom
// instruction pay for itself. Under Default's full 32-bit multiplier (18
// adders, 1.6 cycles) no multiply-containing CFU is ever worth selecting
// at the paper's 1-15 adder budgets; under DSP16 the convolution
// multiply-add chains select normally. Load it in the tools with
// -hwlib dsp16.
func DSP16() *Library {
	l := Default()
	l.entries[ir.Mul] = Entry{Area: 4.5, Delay: 1.10, Allowed: true}
	return l
}

// Area implements ir.CostModel.
func (l *Library) Area(c ir.Opcode) float64 { return l.entries[c].Area }

// Delay implements ir.CostModel.
func (l *Library) Delay(c ir.Opcode) float64 { return l.entries[c].Delay }

// Allowed reports whether the opcode may appear inside a CFU.
func (l *Library) Allowed(c ir.Opcode) bool { return l.entries[c].Allowed }

// ClassOf returns the opcode's wildcard class (ClassNone if it cannot be
// generalized).
func (l *Library) ClassOf(c ir.Opcode) Class { return l.classes[c] }

// ClassMembers returns all opcodes in class cl that are allowed in CFUs.
func (l *Library) ClassMembers(cl Class) []ir.Opcode {
	if cl == ClassNone {
		return nil
	}
	var out []ir.Opcode
	for c := ir.Opcode(0); int(c) < ir.NumOpcodes(); c++ {
		if l.classes[c] == cl && l.entries[c].Allowed {
			out = append(out, c)
		}
	}
	return out
}

// ClassArea returns the area of a multi-function node implementing the
// whole class: the max member area plus a small muxing overhead.
func (l *Library) ClassArea(cl Class) float64 {
	max := 0.0
	for _, c := range l.ClassMembers(cl) {
		if a := l.entries[c].Area; a > max {
			max = a
		}
	}
	return max * 1.15
}

// ClassDelay returns the worst-case delay over the class members plus a
// small muxing overhead.
func (l *Library) ClassDelay(cl Class) float64 {
	max := 0.0
	for _, c := range l.ClassMembers(cl) {
		if d := l.entries[c].Delay; d > max {
			max = d
		}
	}
	return max + 0.01
}

// Signature returns a content hash over every entry and opcode class, so
// two Library values with identical cost tables hash identically no matter
// how they were constructed. It keys memoized exploration results (the
// corpus): any change to an area, delay, eligibility bit, or class
// assignment changes the signature and so invalidates every entry derived
// from the old costs.
func (l *Library) Signature() string {
	buf := make([]byte, 0, len(l.entries)*18)
	for c := range l.entries {
		e := &l.entries[c]
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Area))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Delay))
		if e.Allowed {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = append(buf, byte(l.classes[c]))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// RoundHalf rounds an area up to the nearest half adder, as the paper does
// when scoring the area category of the guide function so tiny seeds are
// not penalized unfairly.
func RoundHalf(area float64) float64 {
	r := math.Ceil(area*2) / 2
	if r < 0.5 {
		r = 0.5
	}
	return r
}

// Describe returns a one-line summary of an opcode's hardware entry.
func (l *Library) Describe(c ir.Opcode) string {
	e := l.entries[c]
	return fmt.Sprintf("%-7s area=%5.2f adders  delay=%5.3f cycles  cfu=%v  class=%s",
		c, e.Area, e.Delay, e.Allowed, l.classes[c])
}
