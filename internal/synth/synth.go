package synth

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/ir"
)

// Size limits. The product bound keeps worst-case generation (and the fuzz
// target) around a hundred thousand ops — two orders of magnitude above the
// largest hand-lowered benchmark, which is the stress range the generator
// exists to cover.
const (
	MaxBlocks      = 1024
	MaxOpsPerBlock = 16384
	MaxTotalOps    = 131072
)

// synthMem is the base of the memory window synthetic loads and stores are
// masked into, clear of the regions the hand-lowered benchmarks use.
const synthMem uint32 = 0x00200000

// Mix gives the relative weight of each opcode category when drawing the
// next operation. Weights are relative, not percentages; a zero weight
// removes the category entirely.
type Mix struct {
	ALU   int // add/sub/rsb/and/or/xor/andnot/not
	Mul   int // multiply
	Shift int // shl/shr/sar/rotl/rotr
	Cmp   int // the six compares
	Sel   int // select
	Mem   int // masked load/store pairs into the synthMem window
}

func (m Mix) total() int { return m.ALU + m.Mul + m.Shift + m.Cmp + m.Sel + m.Mem }

// Spec parameterizes one synthetic program. The zero value is not useful;
// start from DefaultSpec (or ParseSpec, which does).
type Spec struct {
	Name string
	Seed uint64
	// Blocks and Ops set the shape: Blocks basic blocks of ~Ops operations
	// each (Ops is a floor; the live-out moves and the terminator push a
	// block a few ops past it).
	Blocks int
	Ops    int
	// FanIn is the operand-locality window: each operand is drawn uniformly
	// from the last FanIn values produced, so small windows give deep
	// ALU chains (encryption-shaped) and large windows give wide,
	// shallow dataflow (media-shaped).
	FanIn int
	// LiveIn and LiveOut set the register boundary density: LiveIn
	// registers feed each block, LiveOut results are defined live-out.
	LiveIn  int
	LiveOut int
	// Weight is the profile weight of the first (hottest) block; later
	// blocks decay harmonically like the hand-lowered kernels.
	Weight float64
	Mix    Mix
}

// DefaultSpec is a medium synthetic program: 4 blocks of 64 ops with a
// media-like mix, about the size of four blowfish kernels.
func DefaultSpec() Spec {
	return Spec{
		Name:    "synth",
		Seed:    1,
		Blocks:  4,
		Ops:     64,
		FanIn:   8,
		LiveIn:  4,
		LiveOut: 2,
		Weight:  100000,
		Mix:     Mix{ALU: 56, Mul: 8, Shift: 16, Cmp: 8, Sel: 8, Mem: 4},
	}
}

// StressSpec is the large-DFG preset used by the strategy shootout and the
// explore benchmarks: ~2400 ops, 25-60x the hand-lowered kernels, where
// exhaustive enumeration visibly separates from iterative improvement.
func StressSpec() Spec {
	s := DefaultSpec()
	s.Name = "synth-stress"
	s.Seed = 7
	s.Blocks = 6
	s.Ops = 400
	s.FanIn = 12
	return s
}

// Check reports whether the spec is generable within the size limits.
func (s Spec) Check() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("synth: empty name")
	case strings.IndexFunc(s.Name, func(r rune) bool {
		return !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '-')
	}) >= 0:
		return fmt.Errorf("synth: name %q not [a-z0-9-]", s.Name)
	case s.Blocks < 1 || s.Blocks > MaxBlocks:
		return fmt.Errorf("synth: blocks %d outside [1,%d]", s.Blocks, MaxBlocks)
	case s.Ops < 1 || s.Ops > MaxOpsPerBlock:
		return fmt.Errorf("synth: ops %d outside [1,%d]", s.Ops, MaxOpsPerBlock)
	case s.Blocks*s.Ops > MaxTotalOps:
		return fmt.Errorf("synth: blocks*ops %d exceeds %d", s.Blocks*s.Ops, MaxTotalOps)
	case s.FanIn < 1 || s.FanIn > MaxOpsPerBlock:
		return fmt.Errorf("synth: fanin %d outside [1,%d]", s.FanIn, MaxOpsPerBlock)
	case s.LiveIn < 1 || s.LiveIn > 16:
		return fmt.Errorf("synth: livein %d outside [1,16]", s.LiveIn)
	case s.LiveOut < 0 || s.LiveOut > 16:
		return fmt.Errorf("synth: liveout %d outside [0,16]", s.LiveOut)
	case !(s.Weight > 0):
		return fmt.Errorf("synth: weight %g not positive", s.Weight)
	case s.Mix.ALU < 0 || s.Mix.Mul < 0 || s.Mix.Shift < 0 || s.Mix.Cmp < 0 || s.Mix.Sel < 0 || s.Mix.Mem < 0:
		return fmt.Errorf("synth: negative mix weight")
	case s.Mix.total() == 0:
		return fmt.Errorf("synth: all mix weights zero")
	}
	return nil
}

// specKeys maps wire-form keys to setters, shared by ParseSpec and String.
// The grammar is colon-separated key=value pairs ("seed=3:blocks=8:ops=512")
// — no commas or plus signs, so a spec nests verbatim inside loadgen specs
// as bench=synth:<spec>.
var specKeys = []string{
	"name", "seed", "blocks", "ops", "fanin", "livein", "liveout", "weight",
	"alu", "mul", "shift", "cmp", "sel", "mem",
}

// ParseSpec parses the colon-separated wire form, starting from DefaultSpec
// so any subset of keys may be given. "" yields DefaultSpec itself.
func ParseSpec(text string) (Spec, error) {
	s := DefaultSpec()
	if text == "" {
		return s, nil
	}
	for _, field := range strings.Split(text, ":") {
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return Spec{}, fmt.Errorf("synth: spec field %q is not key=value", field)
		}
		if key == "name" {
			s.Name = val
			continue
		}
		if key == "weight" {
			w, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("synth: bad weight %q", val)
			}
			s.Weight = w
			continue
		}
		n, err := strconv.ParseUint(val, 10, 32)
		if err != nil {
			return Spec{}, fmt.Errorf("synth: bad value %q for %q", val, key)
		}
		v := int(n)
		switch key {
		case "seed":
			s.Seed = n
		case "blocks":
			s.Blocks = v
		case "ops":
			s.Ops = v
		case "fanin":
			s.FanIn = v
		case "livein":
			s.LiveIn = v
		case "liveout":
			s.LiveOut = v
		case "alu":
			s.Mix.ALU = v
		case "mul":
			s.Mix.Mul = v
		case "shift":
			s.Mix.Shift = v
		case "cmp":
			s.Mix.Cmp = v
		case "sel":
			s.Mix.Sel = v
		case "mem":
			s.Mix.Mem = v
		default:
			return Spec{}, fmt.Errorf("synth: unknown spec key %q (have %s)", key, strings.Join(specKeys, " "))
		}
	}
	return s, s.Check()
}

// String renders the spec in the wire form ParseSpec accepts, with every
// key explicit and in fixed order, so it serves as a cache/identity key.
func (s Spec) String() string {
	d := map[string]string{
		"name": s.Name, "seed": strconv.FormatUint(s.Seed, 10),
		"blocks": strconv.Itoa(s.Blocks), "ops": strconv.Itoa(s.Ops),
		"fanin": strconv.Itoa(s.FanIn), "livein": strconv.Itoa(s.LiveIn),
		"liveout": strconv.Itoa(s.LiveOut), "weight": strconv.FormatFloat(s.Weight, 'g', -1, 64),
		"alu": strconv.Itoa(s.Mix.ALU), "mul": strconv.Itoa(s.Mix.Mul),
		"shift": strconv.Itoa(s.Mix.Shift), "cmp": strconv.Itoa(s.Mix.Cmp),
		"sel": strconv.Itoa(s.Mix.Sel), "mem": strconv.Itoa(s.Mix.Mem),
	}
	parts := make([]string, len(specKeys))
	for i, k := range specKeys {
		parts[i] = k + "=" + d[k]
	}
	return strings.Join(parts, ":")
}

// Opcode pools per category, drawn from uniformly. Div/Rem are excluded
// (trap semantics), Custom cannot serialize, and the float ops are left to
// specs that want them via future mix extensions.
var (
	aluOps   = []ir.Opcode{ir.Add, ir.Sub, ir.Rsb, ir.And, ir.Or, ir.Xor, ir.AndNot}
	shiftOps = []ir.Opcode{ir.Shl, ir.Shr, ir.Sar, ir.Rotl, ir.Rotr}
	cmpOps   = []ir.Opcode{ir.CmpEq, ir.CmpNe, ir.CmpLtS, ir.CmpLeS, ir.CmpLtU, ir.CmpLeU}
)

// Generate builds the synthetic program the spec describes. The same spec
// always yields a byte-identical program (asm.Write output included): the
// only entropy source is a PRNG seeded from Spec.Seed, consumed in a fixed
// order, and map iteration is never used. Every generated program passes
// ir.Validate.
func Generate(spec Spec) (*ir.Program, error) {
	if err := spec.Check(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(int64(spec.Seed)))
	p := ir.NewProgram(spec.Name)
	for i := 0; i < spec.Blocks; i++ {
		b := p.AddBlock(fmt.Sprintf("s%03d", i), spec.Weight/float64(i+1))
		genBlock(rng, b, spec)
		if i+1 < spec.Blocks {
			b.Succs = []string{fmt.Sprintf("s%03d", i+1)}
		}
	}
	if err := ir.Validate(p); err != nil {
		return nil, fmt.Errorf("synth: generated program invalid: %w", err)
	}
	return p, nil
}

func genBlock(rng *rand.Rand, b *ir.Block, spec Spec) {
	// The value pool every operand is drawn from, seeded with the live-in
	// registers. pick draws uniformly from the trailing FanIn window, with
	// a 1-in-8 chance of a fresh immediate instead.
	pool := make([]ir.Operand, 0, spec.Ops+spec.LiveIn)
	for r := 0; r < spec.LiveIn; r++ {
		pool = append(pool, b.Arg(ir.R(1+r)))
	}
	pick := func() ir.Operand {
		if rng.Intn(8) == 0 {
			return b.Imm(rng.Uint32())
		}
		w := spec.FanIn
		if w > len(pool) {
			w = len(pool)
		}
		return pool[len(pool)-1-rng.Intn(w)]
	}

	total := spec.Mix.total()
	for len(b.Ops) < spec.Ops {
		roll := rng.Intn(total)
		switch {
		case roll < spec.Mix.ALU:
			code := aluOps[rng.Intn(len(aluOps))]
			pool = append(pool, b.Emit(code, pick(), pick()).Out())
		case roll < spec.Mix.ALU+spec.Mix.Mul:
			pool = append(pool, b.Mul(pick(), pick()))
		case roll < spec.Mix.ALU+spec.Mix.Mul+spec.Mix.Shift:
			code := shiftOps[rng.Intn(len(shiftOps))]
			amt := b.Imm(uint32(1 + rng.Intn(31)))
			pool = append(pool, b.Emit(code, pick(), amt).Out())
		case roll < spec.Mix.ALU+spec.Mix.Mul+spec.Mix.Shift+spec.Mix.Cmp:
			code := cmpOps[rng.Intn(len(cmpOps))]
			pool = append(pool, b.Emit(code, pick(), pick()).Out())
		case roll < spec.Mix.ALU+spec.Mix.Mul+spec.Mix.Shift+spec.Mix.Cmp+spec.Mix.Sel:
			pool = append(pool, b.Select(pick(), pick(), pick()))
		default:
			// Memory: an address masked word-aligned into the synthetic
			// window, then a load or (one in three) a store.
			addr := b.Add(b.Imm(synthMem), b.And(pick(), b.Imm(0x1FFC)))
			if rng.Intn(3) == 0 {
				b.Store(addr, pick())
			} else {
				pool = append(pool, b.Load(addr))
			}
		}
	}

	// Live-outs: the freshest distinct pool values, defined into registers
	// disjoint from the live-in range.
	for k := 0; k < spec.LiveOut && k < len(pool); k++ {
		b.Def(ir.R(64+k), pool[len(pool)-1-k])
	}
	cond := b.CmpNe(pick(), b.Imm(0))
	b.BranchIf(cond)
}

// Sizes summarizes the generated shape for logs: total ops and per-block
// counts in block order.
func Sizes(p *ir.Program) string {
	per := make([]string, len(p.Blocks))
	for i, b := range p.Blocks {
		per[i] = strconv.Itoa(len(b.Ops))
	}
	return fmt.Sprintf("%d ops (%s)", p.NumOps(), strings.Join(per, "+"))
}
