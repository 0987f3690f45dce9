// Custom kernel: bring your own computation. Builds a Fowler–Noll–Vo-style
// hash round plus a saturating accumulate with the ir builder API, runs the
// hardware compiler on it, dumps the hot DFG (with the best CFU shaded) as
// Graphviz DOT, and verifies the customized code in the simulator.
package main

import (
	"fmt"
	"log"
	"os"

	"repro"
	"repro/internal/ir"
)

// buildKernel lowers the user's kernel to the generic RISC IR.
func buildKernel() *ir.Program {
	p := ir.NewProgram("fnvsat")

	// Hot loop: two FNV-1a style rounds on bytes of r1, then a saturating
	// accumulate into r2 (classic DSP idiom: add, compare, select).
	b := p.AddBlock("hash2", 100000)
	h := b.Arg(ir.R(1))
	data := b.Arg(ir.R(3))
	for i := 0; i < 2; i++ {
		byt := b.And(b.Shr(data, b.Imm(uint32(8*i))), b.Imm(0xFF))
		h = b.Mul(b.Xor(h, byt), b.Imm(0x01000193))
	}
	acc := b.Arg(ir.R(2))
	sum := b.Add(acc, b.Shr(h, b.Imm(16)))
	limit := b.Imm(0x7FFFFFFF)
	sat := b.Select(b.CmpLtS(limit, sum), limit, sum)
	b.Def(ir.R(1), h)
	b.Def(ir.R(2), sat)

	// Cold wrap-up: fold the hash to 16 bits.
	c := p.AddBlock("fold", 500)
	hh := c.Arg(ir.R(1))
	c.Def(ir.R(4), c.And(c.Xor(hh, c.Shr(hh, c.Imm(16))), c.Imm(0xFFFF)))
	return p
}

func main() {
	log.SetFlags(0)
	prog := buildKernel()

	res, err := repro.Customize(prog, repro.Config{Budget: 10, Verify: true})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("custom kernel %q: %d candidate CFUs discovered, %d selected\n",
		prog.Name, len(res.Candidates), len(res.MDES.CFUs))
	for _, c := range res.MDES.CFUs {
		fmt.Printf("  %-36s area %5.2f  latency %d\n", c.Name, c.Area, c.Latency)
	}
	fmt.Printf("speedup on the 4-wide VLIW baseline: %.2fx\n\n", res.Report.Speedup)

	// Dump the hot block's DFG with the ops of the first custom
	// instruction highlighted, as in the paper's Figure 2.
	hot := res.Program.Blocks[0]
	var members ir.OpSet
	for i, op := range hot.Ops {
		if op.Code == ir.Custom {
			// Highlight the custom op itself in the transformed DFG.
			members = ir.NewOpSet(i)
			break
		}
	}
	f, err := os.Create("fnvsat.dot")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := ir.WriteDOT(f, hot, members); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote fnvsat.dot (render with: dot -Tpng fnvsat.dot -o fnvsat.png)")
}
