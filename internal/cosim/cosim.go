package cosim

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/hdl"
	"repro/internal/hwlib"
	"repro/internal/mdes"
)

// Options parameterizes one differential check.
type Options struct {
	// Trials is the number of input vectors driven through the netlist
	// (0 = 128). The first trials walk deterministic boundary patterns —
	// zero, one, shift-amount edges 31/32/33, the signed extremes, all
	// ones — before seeded-random vectors take over.
	Trials int
	// Seed seeds the random vectors, so a reported failure replays
	// exactly.
	Seed int64
}

// boundary lists the values every port cycles through before random
// trials: identity/absorbing elements, shift amounts at and beyond the
// word width, and the signed 32-bit extremes.
var boundary = []uint32{
	0, 1, 2, 31, 32, 33, 63, 64,
	0x7FFFFFFF, 0x80000000, 0x80000001, 0xFFFFFFFE, 0xFFFFFFFF,
}

// Mismatch reports one disagreement between the netlist interpreter and
// the reference evaluation, with everything needed to replay it.
type Mismatch struct {
	// Module and Mnemonic identify the datapath.
	Module   string
	Mnemonic string
	// Port is the output port that disagreed.
	Port int
	// FSel, In and Imm are the exact stimulus.
	FSel uint32
	In   []uint32
	Imm  []uint32
	// Got is the netlist value, Want the ir.EvalScalar reference.
	Got, Want uint32
}

// Error renders the mismatch with its full stimulus.
func (m *Mismatch) Error() string {
	return fmt.Sprintf("cosim: %s (%s): out%d = %#x, reference %#x (in=%#x imm=%#x fsel=%#b)",
		m.Module, m.Mnemonic, m.Port, m.Got, m.Want, m.In, m.Imm, m.FSel)
}

// Check lowers one CFU pattern to a netlist and differentially tests it:
// every trial's outputs must agree bit-exactly with the reference
// evaluation (graph.Shape.Eval over ir.EvalScalar) of the same pattern,
// for the base function and for every function-select setting of
// multi-function nodes. Patterns with no combinational form (memory,
// control, Custom) return the lowering error unchanged.
func Check(s *graph.Shape, lib *hwlib.Library, opt Options) error {
	n, err := hdl.BuildNetlist("dut", s, lib)
	if err != nil {
		return err
	}
	return CheckNetlist(n, s, opt)
}

// Datapath is the co-simulation verdict on one shape of a selected CFU.
type Datapath struct {
	// CFU indexes the machine description's CFUs; Variant is 0 for the
	// CFU's primary shape and k for its k-th subsumed variant.
	CFU, Variant int
	// Memory marks a shape with a load/store port: it has no
	// combinational datapath, so it was neither lowered nor checked.
	Memory bool
	// Err is the co-simulation failure (nil = every trial agreed).
	Err error
}

// CheckMDES lowers every shape of m's CFUs — each CFU's primary shape,
// then its subsumed variants — to a netlist and co-simulates it with the
// given trial count, shape vi of CFU i under seed base+i*131+vi. It
// returns one Datapath per shape in that order; a mismatch is recorded
// and the walk goes on. A shape that fails to lower ends the walk: the
// verdicts so far come back with an error naming the CFU and variant.
func CheckMDES(m *mdes.MDES, lib *hwlib.Library, trials int, base int64) ([]Datapath, error) {
	var out []Datapath
	for i := range m.CFUs {
		spec := &m.CFUs[i]
		for vi, s := range append([]*graph.Shape{spec.Shape}, spec.Variants...) {
			d := Datapath{CFU: i, Variant: vi, Memory: s.UsesMemory()}
			if !d.Memory {
				n, err := hdl.BuildNetlist(hdl.ModuleName(spec.Name), s, lib)
				if err != nil {
					return out, fmt.Errorf("lowering %s variant %d: %w", spec.Name, vi, err)
				}
				d.Err = CheckNetlist(n, s, Options{Trials: trials, Seed: base + int64(i*131+vi)})
			}
			out = append(out, d)
		}
	}
	return out, nil
}

// refVariant pairs one function-select setting with the pattern that
// setting makes the hardware execute.
type refVariant struct {
	fsel  uint32
	shape *graph.Shape
}

// referenceVariants derives the reference pattern for each exercised fsel
// setting: all-zero (the representative opcodes), each select bit alone,
// and all bits together. The reference shape substitutes the documented
// alternate opcode on every selected node, so the mux semantics are
// checked against ir.EvalScalar, not against the netlist's own notion of
// the alternate.
func referenceVariants(n *hdl.Netlist, s *graph.Shape) []refVariant {
	variants := []refVariant{{fsel: 0, shape: s}}
	if n.SelBits == 0 {
		return variants
	}
	build := func(fsel uint32) refVariant {
		rs := s.Clone()
		for k, sel := range n.Sels {
			if fsel&(1<<uint(k)) != 0 {
				rs.Nodes[sel.Node].Code = sel.Alt
			}
		}
		return refVariant{fsel: fsel, shape: rs}
	}
	for k := range n.Sels {
		variants = append(variants, build(1<<uint(k)))
	}
	if n.SelBits > 1 {
		variants = append(variants, build(1<<uint(n.SelBits)-1))
	}
	return variants
}

// CheckNetlist differentially tests an already-built netlist against the
// pattern it claims to implement. Check is the normal entry point; this
// one exists so tests can prove the harness catches a tampered netlist.
func CheckNetlist(n *hdl.Netlist, s *graph.Shape, opt Options) error {
	trials := opt.Trials
	if trials <= 0 {
		trials = 128
	}
	rng := rand.New(rand.NewSource(opt.Seed ^ 0x15c0c051))
	variants := referenceVariants(n, s)
	in := make([]uint32, n.NumInputs)
	imm := make([]uint32, n.NumImms)
	for t := 0; t < trials; t++ {
		if t < 2*len(boundary) {
			// Deterministic boundary sweep: stagger the ports so equal and
			// unequal operand combinations both occur.
			for i := range in {
				in[i] = boundary[(t+i*5)%len(boundary)]
			}
			for j := range imm {
				imm[j] = boundary[(t+(len(in)+j)*5)%len(boundary)]
			}
		} else {
			for i := range in {
				in[i] = rng.Uint32()
			}
			for j := range imm {
				imm[j] = rng.Uint32()
			}
		}
		for _, rv := range variants {
			got, err := EvalNetlist(n, Inputs{In: in, Imm: imm, FSel: rv.fsel})
			if err != nil {
				return fmt.Errorf("cosim: %s: %w", n.Name, err)
			}
			want := rv.shape.Eval(in, imm)
			for k := range want {
				if got[k] != want[k] {
					return &Mismatch{
						Module:   n.Name,
						Mnemonic: n.Mnemonic,
						Port:     k,
						FSel:     rv.fsel,
						In:       append([]uint32(nil), in...),
						Imm:      append([]uint32(nil), imm...),
						Got:      got[k],
						Want:     want[k],
					}
				}
			}
		}
	}
	return nil
}
