package ir

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// buildChain builds a block computing a linear chain of n adds.
func buildChain(n int) *Block {
	b := NewBlock("chain", 1)
	v := b.Arg(R(1))
	for i := 0; i < n; i++ {
		v = b.Add(v, b.Imm(uint32(i)))
	}
	b.Def(R(2), v)
	return b
}

func TestOpcodeProperties(t *testing.T) {
	if !Add.IsCommutative() || Sub.IsCommutative() {
		t.Fatal("commutativity wrong for add/sub")
	}
	if !LoadW.IsMemory() || !StoreB.IsMemory() || Add.IsMemory() {
		t.Fatal("memory classification wrong")
	}
	if !Br.IsBranch() || !Ret.IsBranch() || Move.IsBranch() {
		t.Fatal("branch classification wrong")
	}
	if StoreW.HasResult() || !Add.HasResult() || Br.HasResult() {
		t.Fatal("result classification wrong")
	}
	if Add.Arity() != 2 || Not.Arity() != 1 || Select.Arity() != 3 || Br.Arity() != 0 {
		t.Fatal("arity wrong")
	}
	if Add.String() != "add" || Custom.String() != "custom" {
		t.Fatal("opcode names wrong")
	}
}

func TestIdentities(t *testing.T) {
	cases := []struct {
		code Opcode
		want int // number of identities
	}{
		{Add, 2}, {Sub, 1}, {And, 2}, {Mul, 2}, {Xor, 2},
		{Shl, 1}, {Select, 2}, {CmpEq, 0}, {LoadW, 0},
	}
	for _, c := range cases {
		if got := len(c.code.Identities()); got != c.want {
			t.Errorf("%s: got %d identities, want %d", c.code, got, c.want)
		}
	}
	// And's neutral element must be all-ones.
	for _, id := range And.Identities() {
		if id.ConstVal != 0xFFFFFFFF {
			t.Errorf("and identity const = %#x, want all ones", id.ConstVal)
		}
	}
}

func TestBuilderAndStringer(t *testing.T) {
	b := NewBlock("bb", 10)
	x := b.Arg(R(1))
	y := b.Arg(R(2))
	s := b.Add(x, y)
	tv := b.Xor(s, b.Imm(0xff))
	b.Def(R(3), tv)
	if len(b.Ops) != 2 {
		t.Fatalf("got %d ops, want 2", len(b.Ops))
	}
	if b.Ops[1].Dest != R(3) {
		t.Fatalf("Def did not set dest")
	}
	if got := b.Ops[1].String(); !strings.Contains(got, "xor") || !strings.Contains(got, "r3") {
		t.Fatalf("op stringer: %q", got)
	}
	// Def on a non-op operand inserts a Move.
	mv := b.Def(R(4), b.Imm(7))
	if mv.Code != Move || mv.Dest != R(4) {
		t.Fatalf("Def(imm) should insert a move, got %v", mv)
	}
}

func TestAnalyzeChain(t *testing.T) {
	b := buildChain(5)
	d := Analyze(b)
	if d.CritLen != 5 {
		t.Fatalf("critical path = %d, want 5", d.CritLen)
	}
	for i := 0; i < 5; i++ {
		if d.Slack[i] != 0 {
			t.Errorf("chain op %d slack = %d, want 0", i, d.Slack[i])
		}
		if d.Depth[i] != i+1 {
			t.Errorf("chain op %d depth = %d, want %d", i, d.Depth[i], i+1)
		}
		if d.Height[i] != 5-i {
			t.Errorf("chain op %d height = %d, want %d", i, d.Height[i], 5-i)
		}
	}
}

func TestAnalyzeSlackOffCriticalPath(t *testing.T) {
	// Diamond with a long arm and a short arm.
	b := NewBlock("d", 1)
	x := b.Arg(R(1))
	a1 := b.Add(x, b.Imm(1))
	a2 := b.Add(a1, b.Imm(2))
	a3 := b.Add(a2, b.Imm(3))
	s1 := b.Sub(x, b.Imm(4)) // short arm: slack 2
	join := b.Xor(a3, s1)
	b.Def(R(2), join)
	d := Analyze(b)
	if d.CritLen != 4 {
		t.Fatalf("critlen = %d, want 4", d.CritLen)
	}
	pos := func(op *Op) int {
		i, ok := d.Pos.Lookup(op)
		if !ok {
			t.Fatalf("op %%%d not indexed", op.ID)
		}
		return i
	}
	if got := d.Slack[pos(s1.X)]; got != 2 {
		t.Fatalf("short arm slack = %d, want 2", got)
	}
	if got := d.Slack[pos(join.X)]; got != 0 {
		t.Fatalf("join slack = %d, want 0", got)
	}
}

func TestMemoryOrderingEdges(t *testing.T) {
	b := NewBlock("m", 1)
	addr := b.Arg(R(1))
	v1 := b.Load(addr)           // op 0
	b.Store(addr, v1)            // op 1: after load 0
	v2 := b.Load(addr)           // op 2: after store 1
	b.Store(addr, b.Add(v2, v2)) // ops 3 (add), 4 (store)
	d := Analyze(b)
	hasEdge := func(from, to int) bool {
		for _, p := range d.Preds[to] {
			if p == from {
				return true
			}
		}
		return false
	}
	if !hasEdge(0, 1) {
		t.Error("store must be ordered after prior load")
	}
	if !hasEdge(1, 2) {
		t.Error("load must be ordered after prior store")
	}
	if !hasEdge(1, 4) {
		t.Error("store must be ordered after prior store")
	}
}

func TestTerminatorEdges(t *testing.T) {
	b := NewBlock("t", 1)
	x := b.Add(b.Arg(R(1)), b.Imm(1))
	b.Def(R(2), x)
	b.BranchIf(b.CmpEq(x, b.Imm(0)))
	d := Analyze(b)
	br := len(b.Ops) - 1
	if len(d.Preds[br]) != len(b.Ops)-1 {
		t.Fatalf("terminator should depend on all %d other ops, got %d preds",
			len(b.Ops)-1, len(d.Preds[br]))
	}
}

func TestValidateCatchesBadArity(t *testing.T) {
	p := NewProgram("bad")
	b := p.AddBlock("b", 1)
	op := b.Emit(Add, b.Arg(R(1))) // one arg, needs two
	_ = op
	if err := Validate(p); err == nil {
		t.Fatal("expected arity error")
	}
}

func TestValidateCatchesCrossBlockUse(t *testing.T) {
	p := NewProgram("bad2")
	b1 := p.AddBlock("b1", 1)
	v := b1.Add(b1.Arg(R(1)), b1.Imm(1))
	b2 := p.AddBlock("b2", 1)
	b2.Emit(Add, v, b2.Imm(2))
	if err := Validate(p); err == nil {
		t.Fatal("expected cross-block use error")
	}
}

func TestValidateCatchesMisplacedTerminator(t *testing.T) {
	p := NewProgram("bad3")
	b := p.AddBlock("b", 1)
	b.Branch()
	b.Add(b.Arg(R(1)), b.Imm(1))
	if err := Validate(p); err == nil {
		t.Fatal("expected terminator placement error")
	}
}

func TestValidateOK(t *testing.T) {
	p := NewProgram("ok")
	b := p.AddBlock("b", 1)
	v := b.Add(b.Arg(R(1)), b.Imm(1))
	b.Def(R(2), v)
	b.Branch()
	if err := Validate(p); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	b := buildChain(3)
	c := b.Clone()
	if len(c.Ops) != len(b.Ops) {
		t.Fatal("clone length mismatch")
	}
	// Edit clone; original must be unaffected.
	c.Ops[0].Code = Mul
	if b.Ops[0].Code != Add {
		t.Fatal("clone shares op structs with original")
	}
	// Clone's operand links must point at clone ops.
	for _, op := range c.Ops {
		for _, a := range op.Args {
			if a.Kind == FromOp && c.Index(a.X) < 0 {
				t.Fatal("clone operand points at original op")
			}
		}
	}
}

type unitCost struct{}

func (unitCost) Area(Opcode) float64  { return 1 }
func (unitCost) Delay(Opcode) float64 { return 0.3 }

func TestSubgraphBasics(t *testing.T) {
	// y = ((a+b) ^ c) << 2; z = (a+b) - d
	b := NewBlock("s", 1)
	a, bb, c, dd := b.Arg(R(1)), b.Arg(R(2)), b.Arg(R(3)), b.Arg(R(4))
	sum := b.Add(a, bb)      // 0
	x := b.Xor(sum, c)       // 1
	sh := b.Shl(x, b.Imm(2)) // 2
	z := b.Sub(sum, dd)      // 3
	b.Def(R(5), sh)
	b.Def(R(6), z)
	d := Analyze(b)

	s := NewOpSet(0, 1)
	if !s.Connected(d) {
		t.Fatal("0-1 should be connected")
	}
	if !NewOpSet(0, 1, 2).Connected(d) {
		t.Fatal("0-1-2 should be connected")
	}
	if NewOpSet(2, 3).Connected(d) {
		t.Fatal("2,3 are not adjacent")
	}
	in, out := s.NumIO(d)
	// Inputs: a, b, c. Outputs: sum (used by 3) and xor (used by 2).
	if in != 3 || out != 2 {
		t.Fatalf("IO = (%d,%d), want (3,2)", in, out)
	}
	// Whole graph: inputs a,b,c,d (imm 2 is encoded, not a port); outputs sh, z.
	all := NewOpSet(0, 1, 2, 3)
	in, out = all.NumIO(d)
	if in != 4 || out != 2 {
		t.Fatalf("whole IO = (%d,%d), want (4,2)", in, out)
	}
	if got := all.Area(d, unitCost{}); got != 4 {
		t.Fatalf("area = %v, want 4", got)
	}
	// Latency: longest chain 0->1->2 = 0.9.
	if got := all.Latency(d, unitCost{}); got < 0.89 || got > 0.91 {
		t.Fatalf("latency = %v, want 0.9", got)
	}
	if all.Cycles(d, unitCost{}) != 1 {
		t.Fatal("0.9 fractional cycles should round to 1")
	}
}

func TestConvexity(t *testing.T) {
	// a -> b -> c, and a -> x(external) -> c would be non-convex if we take
	// {a, c} with b outside.
	b := NewBlock("cv", 1)
	a := b.Add(b.Arg(R(1)), b.Imm(1)) // 0
	mid := b.Sub(a, b.Imm(2))         // 1
	c := b.Xor(a, mid)                // 2
	b.Def(R(2), c)
	d := Analyze(b)
	if NewOpSet(0, 2).Convex(d) {
		t.Fatal("{0,2} with path through 1 must be non-convex")
	}
	if !NewOpSet(0, 1, 2).Convex(d) {
		t.Fatal("full graph must be convex")
	}
	if !NewOpSet(0, 1).Convex(d) {
		t.Fatal("{0,1} must be convex")
	}
}

func TestNeighbors(t *testing.T) {
	b := NewBlock("nb", 1)
	a := b.Add(b.Arg(R(1)), b.Imm(1)) // 0
	x := b.Xor(a, b.Imm(3))           // 1
	y := b.Sub(a, b.Imm(4))           // 2
	z := b.Or(x, y)                   // 3
	b.Def(R(2), z)
	d := Analyze(b)
	nbrs := NewOpSet(1).Neighbors(d)
	if len(nbrs) != 2 || nbrs[0] != 0 || nbrs[1] != 3 {
		t.Fatalf("neighbors of {1} = %v, want [0 3]", nbrs)
	}
}

func TestOpSetKeyAndSorted(t *testing.T) {
	s := NewOpSet(5, 1, 3)
	if got := s.Sorted(); got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Fatalf("sorted = %v", got)
	}
	if s.Key() != NewOpSet(3, 5, 1).Key() {
		t.Fatal("keys of equal sets differ")
	}
	if s.Key() == NewOpSet(1, 3).Key() {
		t.Fatal("keys of different sets collide")
	}
}

func TestWriteDOT(t *testing.T) {
	b := buildChain(3)
	var buf bytes.Buffer
	if err := WriteDOT(&buf, b, NewOpSet(0, 1)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "digraph") || !strings.Contains(out, "gray80") {
		t.Fatalf("dot output missing pieces: %s", out)
	}
}

// Property: for any random DAG built by the builder, depth+height-1 <=
// critical length, and slack is non-negative.
func TestSlackInvariantQuick(t *testing.T) {
	f := func(seed int64) bool {
		b := randomBlock(seed, 24)
		d := Analyze(b)
		for i := range b.Ops {
			if d.Slack[i] < 0 {
				return false
			}
			if d.Depth[i]+d.Height[i]-1 > d.CritLen {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, qcfgIR(40)); err != nil {
		t.Fatal(err)
	}
}

// Property: topological order respects all dependence edges.
func TestTopoOrderQuick(t *testing.T) {
	f := func(seed int64) bool {
		b := randomBlock(seed, 24)
		d := Analyze(b)
		order := d.TopoOrder()
		pos := make([]int, len(order))
		for k, i := range order {
			pos[i] = k
		}
		for i := range b.Ops {
			for _, p := range d.Preds[i] {
				if pos[p] >= pos[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, qcfgIR(40)); err != nil {
		t.Fatal(err)
	}
}

// randomBlock builds a pseudo-random but valid straight-line block.
func randomBlock(seed int64, n int) *Block {
	s := uint64(seed)*2862933555777941757 + 3037000493
	next := func(m int) int {
		s = s*2862933555777941757 + 3037000493
		return int((s >> 33) % uint64(m))
	}
	b := NewBlock("rand", 1)
	var vals []Operand
	vals = append(vals, b.Arg(R(1)), b.Arg(R(2)), b.Imm(uint32(seed)))
	codes := []Opcode{Add, Sub, Xor, And, Or, Shl, Mul}
	for i := 0; i < n; i++ {
		c := codes[next(len(codes))]
		x := vals[next(len(vals))]
		y := vals[next(len(vals))]
		vals = append(vals, b.op2(c, x, y))
	}
	b.Def(R(3), vals[len(vals)-1])
	return b
}

// qcfgIR pins the RNG so property failures are reproducible in CI.
func qcfgIR(n int) *quick.Config {
	return &quick.Config{MaxCount: n, Rand: rand.New(rand.NewSource(7))}
}
