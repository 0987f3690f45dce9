package sim

import (
	"fmt"

	"repro/internal/ir"
)

// State is the architectural state a block executes against.
type State struct {
	Regs map[ir.Reg]uint32
	mem  map[uint32]byte
	// seed drives the deterministic default contents of unwritten memory,
	// so two runs with the same seed see the same "preexisting" memory.
	seed uint32
	// Stores records every (address, value-byte) written, for equivalence
	// comparison.
	Stores map[uint32]byte
	// BranchTaken holds the last evaluated branch condition (Br = 1).
	BranchTaken uint32
	// Returned holds the Ret value if the block returned one.
	Returned uint32
}

// NewState returns a state with the given memory seed.
func NewState(seed uint32) *State {
	return &State{
		Regs:   make(map[ir.Reg]uint32),
		mem:    make(map[uint32]byte),
		Stores: make(map[uint32]byte),
		seed:   seed,
	}
}

// readByte returns memory content, synthesizing deterministic pseudo-random
// bytes for addresses never written.
func (s *State) readByte(addr uint32) byte {
	if b, ok := s.mem[addr]; ok {
		return b
	}
	x := addr ^ s.seed
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	return byte(x * 2654435761 >> 24)
}

func (s *State) writeByte(addr uint32, b byte) {
	s.mem[addr] = b
	s.Stores[addr] = b
}

// LoadWord reads 4 little-endian bytes.
func (s *State) LoadWord(addr uint32) uint32 {
	return uint32(s.readByte(addr)) |
		uint32(s.readByte(addr+1))<<8 |
		uint32(s.readByte(addr+2))<<16 |
		uint32(s.readByte(addr+3))<<24
}

// StoreWord writes 4 little-endian bytes.
func (s *State) StoreWord(addr, v uint32) {
	s.writeByte(addr, byte(v))
	s.writeByte(addr+1, byte(v>>8))
	s.writeByte(addr+2, byte(v>>16))
	s.writeByte(addr+3, byte(v>>24))
}

// PreloadWord writes memory without recording it as a store, for setting
// up test fixtures (S-boxes, coefficient tables).
func (s *State) PreloadWord(addr, v uint32) {
	s.mem[addr] = byte(v)
	s.mem[addr+1] = byte(v >> 8)
	s.mem[addr+2] = byte(v >> 16)
	s.mem[addr+3] = byte(v >> 24)
}

// RunBlock executes every operation of b in order against s, updating
// registers named by Dest/Dests and memory.
//
// Register semantics follow the IR contract: a FromReg operand reads the
// block's live-in value, and Dest/Dests writes commit at block exit (last
// writer of a register wins). Values produced and consumed within the block
// flow through explicit FromOp operands, never through the register file,
// so execution order inside the block cannot change what a register read
// observes — the property the compiler's reordering relies on.
func RunBlock(b *ir.Block, s *State) error {
	// Execute in dependence order: the IR allows (acyclic) forward value
	// references in the op list, and memory/terminator ordering edges are
	// part of the dependence graph, so a topological order is exactly the
	// machine's execution semantics.
	e := NewExec(s, len(b.Ops))
	for _, idx := range ir.Analyze(b).TopoOrder() {
		if err := e.Step(b.Ops[idx]); err != nil {
			return err
		}
	}
	e.Commit()
	return nil
}

// Exec is one block execution in progress: the op evaluator shared by
// RunBlock and the cycle-level VLIW interpreter, which differ only in the
// order they step ops. Results of stepped ops feed later FromOp operands;
// register writes are staged until Commit.
type Exec struct {
	s       *State
	vals    map[*ir.Op][]uint32
	pending map[ir.Reg]uint32
}

// NewExec starts executing a block of n ops against s.
func NewExec(s *State, n int) *Exec {
	return &Exec{s: s, vals: make(map[*ir.Op][]uint32, n), pending: make(map[ir.Reg]uint32)}
}

// Step executes op. Every op it reads through a FromOp operand must have
// been stepped already.
func (e *Exec) Step(op *ir.Op) error {
	s := e.s
	args := make([]uint32, len(op.Args))
	for i, a := range op.Args {
		switch a.Kind {
		case ir.FromOp:
			args[i] = e.vals[a.X][a.Idx]
		case ir.FromReg:
			args[i] = s.Regs[a.Reg]
		default:
			args[i] = a.Val
		}
	}
	var out []uint32
	switch {
	case op.Code == ir.Custom:
		switch {
		case op.Custom != nil && op.Custom.EvalMem != nil:
			out = op.Custom.EvalMem(args, s)
		case op.Custom != nil && op.Custom.Eval != nil:
			out = op.Custom.Eval(args)
		default:
			return fmt.Errorf("sim: custom op %%%d has no semantics", op.ID)
		}
		if len(out) != op.Custom.NumOut {
			return fmt.Errorf("sim: custom op %%%d produced %d results, want %d",
				op.ID, len(out), op.Custom.NumOut)
		}
	case op.Code == ir.LoadW:
		out = []uint32{s.LoadWord(args[0])}
	case op.Code == ir.LoadB:
		out = []uint32{uint32(s.readByte(args[0]))}
	case op.Code == ir.LoadH:
		out = []uint32{uint32(s.readByte(args[0])) | uint32(s.readByte(args[0]+1))<<8}
	case op.Code == ir.StoreW:
		s.StoreWord(args[0], args[1])
	case op.Code == ir.StoreB:
		s.writeByte(args[0], byte(args[1]))
	case op.Code == ir.StoreH:
		s.writeByte(args[0], byte(args[1]))
		s.writeByte(args[0]+1, byte(args[1]>>8))
	case op.Code == ir.Br:
		s.BranchTaken = 1
	case op.Code == ir.BrCond:
		s.BranchTaken = args[0]
	case op.Code == ir.Ret:
		if len(args) > 0 {
			s.Returned = args[0]
		}
	case op.Code == ir.Nop:
	default:
		out = []uint32{ir.EvalScalar(op.Code, args)}
	}
	e.vals[op] = out
	if op.Dest != 0 {
		e.pending[op.Dest] = out[0]
	}
	for i, r := range op.Dests {
		if r != 0 {
			e.pending[r] = out[i]
		}
	}
	return nil
}

// Commit writes the staged register results to the state.
func (e *Exec) Commit() {
	for r, v := range e.pending {
		e.s.Regs[r] = v
	}
}

// liveInRegs collects every register a block reads before writing.
func liveInRegs(b *ir.Block) []ir.Reg {
	seen := make(map[ir.Reg]bool)
	var out []ir.Reg
	for _, op := range b.Ops {
		for _, a := range op.Args {
			if a.Kind == ir.FromReg && !seen[a.Reg] {
				seen[a.Reg] = true
				out = append(out, a.Reg)
			}
		}
	}
	return out
}

// Equivalent runs two blocks on `trials` random input states and reports
// whether their observable behaviour matched everywhere: live-out register
// writes, memory stores, branch conditions and return values. A non-nil
// error describes the first divergence.
func Equivalent(a, b *ir.Block, trials int, seed uint32) error {
	regs := liveInRegs(a)
	for _, r := range liveInRegs(b) {
		found := false
		for _, q := range regs {
			if q == r {
				found = true
			}
		}
		if !found {
			regs = append(regs, r)
		}
	}
	rng := seed | 1
	next := func() uint32 {
		rng ^= rng << 13
		rng ^= rng >> 17
		rng ^= rng << 5
		return rng
	}
	for trial := 0; trial < trials; trial++ {
		memSeed := next()
		sa, sb := NewState(memSeed), NewState(memSeed)
		for _, r := range regs {
			v := next()
			sa.Regs[r] = v
			sb.Regs[r] = v
		}
		if err := RunBlock(a, sa); err != nil {
			return err
		}
		if err := RunBlock(b, sb); err != nil {
			return err
		}
		if err := compare(sa, sb, trial); err != nil {
			return err
		}
	}
	return nil
}

func compare(sa, sb *State, trial int) error {
	for r, v := range sa.Regs {
		if sb.Regs[r] != v {
			return fmt.Errorf("sim: trial %d: reg %s = %#x vs %#x", trial, r, v, sb.Regs[r])
		}
	}
	for r, v := range sb.Regs {
		if sa.Regs[r] != v {
			return fmt.Errorf("sim: trial %d: reg %s = %#x vs %#x", trial, r, sa.Regs[r], v)
		}
	}
	// Stores into the spill region are compiler-internal, not observable.
	for addr, v := range sa.Stores {
		if addr >= ir.SpillBase {
			continue
		}
		if w, ok := sb.Stores[addr]; !ok || w != v {
			return fmt.Errorf("sim: trial %d: mem[%#x] = %#x vs %#x (present %v)", trial, addr, v, w, ok)
		}
	}
	for addr, v := range sb.Stores {
		if addr >= ir.SpillBase {
			continue
		}
		if w, ok := sa.Stores[addr]; !ok || w != v {
			return fmt.Errorf("sim: trial %d: mem[%#x] = %#x vs %#x (present %v)", trial, addr, w, v, ok)
		}
	}
	if sa.BranchTaken != sb.BranchTaken {
		return fmt.Errorf("sim: trial %d: branch %d vs %d", trial, sa.BranchTaken, sb.BranchTaken)
	}
	if sa.Returned != sb.Returned {
		return fmt.Errorf("sim: trial %d: ret %#x vs %#x", trial, sa.Returned, sb.Returned)
	}
	return nil
}
