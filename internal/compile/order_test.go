package compile

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/cfu"
	"repro/internal/graph"
	"repro/internal/hwlib"
	"repro/internal/ir"
	"repro/internal/mdes"
)

// wholeBlockOrder is the reference re-linearization of replaceMatch: Kahn's
// ordering of every op of d's block with the ops of set collapsed into one
// node, the smallest original position first (the collapsed node takes
// its first member's), and the terminator kept last. It returns the new op
// order, with nil standing for the custom op, or nil when the collapse
// creates a dependence cycle.
func wholeBlockOrder(d *ir.DFG, set ir.OpSet) []*ir.Op {
	ops := d.Block.Ops
	n := len(ops)
	first := n
	for i := range set {
		first = min(first, i)
	}
	node := func(i int) int {
		if set.Has(i) {
			return n
		}
		return i
	}
	pos := func(id int) int {
		if id == n {
			return first
		}
		return id
	}
	// Only edges touching the collapsed node can repeat.
	succs := make([][]int, n+1)
	indeg := make([]int, n+1)
	into, from := make([]bool, n), make([]bool, n)
	for i := range ops {
		for _, p := range d.Preds[i] {
			u, v := node(p), node(i)
			switch {
			case u == v, v == n && into[u], u == n && from[v]:
				continue
			case v == n:
				into[u] = true
			case u == n:
				from[v] = true
			}
			succs[u] = append(succs[u], v)
			indeg[v]++
		}
	}
	var ready []int
	for id := 0; id <= n; id++ {
		if (id == n || !set.Has(id)) && indeg[id] == 0 {
			ready = append(ready, id)
		}
	}
	var order []*ir.Op
	for len(ready) > 0 {
		bi := 0
		for i := range ready {
			if pos(ready[i]) < pos(ready[bi]) {
				bi = i
			}
		}
		id := ready[bi]
		ready = slices.Delete(ready, bi, bi+1)
		if id == n {
			order = append(order, nil)
		} else {
			order = append(order, ops[id])
		}
		for _, s := range succs[id] {
			if indeg[s]--; indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if len(order) != n-len(set)+1 {
		return nil
	}
	for i, op := range order {
		if op != nil && op.Code.IsBranch() && i != len(order)-1 {
			order = append(append(order[:i], order[i+1:]...), op)
			break
		}
	}
	return order
}

// oracleReplace is replaceMatch checked against wholeBlockOrder: the block's
// new op order must be the reference's, and replaceMatch must fail exactly
// when the reference finds a cycle.
func oracleReplace(t *testing.T, checked *int) func(*blockWork, *ir.Block, *graph.Shape, graph.Match, *ir.CustomInst) error {
	return func(w *blockWork, b *ir.Block, s *graph.Shape, m graph.Match, ci *ir.CustomInst) error {
		t.Helper()
		want := wholeBlockOrder(w.d, m.Set)
		err := w.replaceMatch(b, s, m, ci)
		*checked++
		switch {
		case want == nil:
			if err == nil || !strings.Contains(err.Error(), "dependence cycle") {
				t.Fatalf("%s: replacing %s: got error %v, want a dependence cycle", b.Name, ci.Name, err)
			}
			return err
		case err != nil:
			t.Fatalf("%s: replacing %s: %v", b.Name, ci.Name, err)
		case len(b.Ops) != len(want):
			t.Fatalf("%s: replacing %s left %d ops, want %d", b.Name, ci.Name, len(b.Ops), len(want))
		}
		for k, op := range b.Ops {
			if want[k] == nil && op.Custom == ci || want[k] != nil && op == want[k] {
				continue
			}
			t.Fatalf("%s: replacing %s: op %d is %%%d, differs from the whole-block order", b.Name, ci.Name, k, op.ID)
		}
		return nil
	}
}

// TestWindowOrderMatchesWholeBlock replays the compiler's match-and-replace
// loop, with replaceMatch checked against the whole-block ordering after
// every replacement, over every benchmark, the synthetic stress program and
// synthetic programs of seeds 1-3, against each distinct MDES of budgets
// 1-15, with variant matching off and on and with opcode-class matching.
func TestWindowOrderMatchesWholeBlock(t *testing.T) {
	lib := hwlib.Default()
	progs, err := testPrograms()
	if err != nil {
		t.Fatal(err)
	}
	modes := []Options{{}, {UseVariants: true}, {UseVariants: true, UseOpcodeClasses: true}}
	checked := 0
	replace := oracleReplace(t, &checked)
	for _, p := range progs {
		sel := cfu.NewSelector(p.cands)
		seen := make(map[string]bool)
		for budget := 1.0; budget <= 15; budget++ {
			m := mdes.FromSelection(p.Name, budget, sel.Select(cfu.SelectOptions{Budget: budget, Lib: lib}))
			var names []string
			for _, c := range m.CFUs {
				names = append(names, c.Name)
			}
			if key := strings.Join(names, ","); seen[key] {
				continue
			} else {
				seen[key] = true
			}
			for _, opts := range modes {
				opMatch, classOf := opcodeMatchers(lib, opts.UseOpcodeClasses)
				for _, b := range p.Clone().Blocks {
					var stats graph.MatchStats
					if _, _, err := customizeBlock(b, m, opMatch, classOf, opts.UseVariants, map[string]int{}, &stats, replace); err != nil {
						t.Fatalf("%s/%s at budget %v: %v", p.Name, b.Name, budget, err)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no replacements checked")
	}
	t.Logf("%d replacements checked", checked)
}

// TestWindowOrderFallback compiles a block whose op order is not a
// topological order, so the first replacement must order the whole block,
// against the whole-block reference.
func TestWindowOrderFallback(t *testing.T) {
	b := kernelProgram().Blocks[0]
	slices.Reverse(b.Ops)
	w := newBlockWork(b)
	if w.topo {
		t.Fatal("a reversed block reads as topologically ordered")
	}
	checked := 0
	opMatch, classOf := opcodeMatchers(hwlib.Default(), false)
	exact, _, err := customizeBlock(b, mdesWith(shlAndAdd()), opMatch, classOf, false, map[string]int{}, new(graph.MatchStats), oracleReplace(t, &checked))
	if err != nil {
		t.Fatal(err)
	}
	if exact != 2 || checked != 2 {
		t.Fatalf("%d replacements, %d checked; want 2 and 2", exact, checked)
	}
}

// TestReplaceCycle collapses a non-convex op set, {a, c} around a -> x -> c,
// which no matcher returns: the collapsed node and x then depend on each
// other, and replaceMatch must refuse, as the whole-block ordering does.
func TestReplaceCycle(t *testing.T) {
	b := ir.NewBlock("cyc", 1)
	a := b.Add(b.Arg(ir.R(1)), b.Imm(1))
	x := b.Sub(a, b.Imm(2))
	c := b.Xor(a, x)
	b.Def(ir.R(2), c)
	b.Branch()
	w := newBlockWork(b)
	members := []int{0, 2}
	shape, nodeToOp, inputs := graph.FromOps(w.d, members)
	m := graph.Match{NodeToOp: nodeToOp, Set: ir.NewOpSet(members...), Inputs: inputs, Imms: shape.ImmValues(w.d, nodeToOp)}
	ci := buildCustomInst(w.d, &mdes.CFUSpec{Name: "cyc", Latency: 1}, shape, m)
	if wholeBlockOrder(w.d, m.Set) != nil {
		t.Fatal("the whole-block ordering finds no cycle")
	}
	checked := 0
	if err := oracleReplace(t, &checked)(w, b, shape, m, ci); err == nil {
		t.Fatal("collapsing a non-convex set succeeded")
	}
}
