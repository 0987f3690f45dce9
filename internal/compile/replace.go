package compile

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/ir"
)

// blockWork is one block's match-and-replace workspace: the block's DFG,
// which customizeBlock owns and rebuilds in place after each replacement,
// and replaceMatch's collapse buffers. Nothing outside customizeBlock sees
// the DFG, so recycling it is safe.
type blockWork struct {
	d *ir.DFG
	// topo records that every dependence edge of the block runs forward in
	// its op order, which lets replaceMatch re-linearize only the match's
	// window. Every replacement leaves the block so ordered.
	topo     bool
	inSet    []bool
	cnt32    []int32 // indeg, then succCnt
	flags    []bool  // intoCustom, then fromCustom
	edges    []int64
	succFlat []int32
	succs    [][]int32
	nodes    []int
	ready    []int
	order    []int
	// newOps receives the rewritten op order. The block takes it over, and
	// the block's previous op slice becomes the next replacement's newOps,
	// so the two never alias.
	newOps []*ir.Op
}

func newBlockWork(b *ir.Block) *blockWork {
	w := &blockWork{d: new(ir.DFG), topo: true}
	w.d.Reanalyze(b)
	for i, ps := range w.d.Preds {
		for _, p := range ps {
			w.topo = w.topo && p < i
		}
	}
	return w
}

// reuse returns buf resized to n zeroed elements, reallocating only when
// its capacity is short.
func reuse[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// replaceMatch rewrites block b, replacing the matched subgraph with one
// custom instruction whose semantics evaluate the substituted pattern, and
// then rebuilds w.d for the new op order.
//
// Placement follows the paper: the custom instruction must come after every
// predecessor of the matched ops and before every successor. The block is
// re-linearized with the match collapsed to a single node; a topological
// order with original position as the tie-break implements exactly the
// paper's reorganization (successors scheduled before the last predecessor
// are moved after it, along with the operations depending on them).
//
// When every edge runs forward (w.topo), only the window from the first
// to the last member can move: no op before it depends on a member, every
// op after it follows the whole window, and any cycle through the collapsed
// node lies inside it. So the ordering runs on the window alone, and the
// ops before and after it keep their places, exactly as the whole-block
// ordering leaves them.
func (w *blockWork) replaceMatch(b *ir.Block, pattern *graph.Shape, m graph.Match, ci *ir.CustomInst) error {
	d := w.d
	n := len(b.Ops)

	// Build the custom op (appended; we rebuild the order below).
	custom := b.EmitCustom(ci, m.Inputs...)

	// Wire outputs: external users of each output node's value read the
	// custom result port; live-out registers transfer to the custom op.
	for k, nodeIdx := range pattern.Outputs {
		if op := b.Ops[m.NodeToOp[nodeIdx]]; op.Dest != 0 {
			custom.Dests[k] = op.Dest
		}
	}
	w.inSet = reuse(w.inSet, n)
	inSet := w.inSet
	first, last := n, -1
	for i := range m.Set {
		inSet[i] = true
		first, last = min(first, i), max(last, i)
	}
	for node, j := range m.NodeToOp {
		port := slices.Index(pattern.Outputs, node)
		for _, u := range d.Users(j) {
			if inSet[u] {
				continue
			}
			if port < 0 {
				return fmt.Errorf("compile: internal value of %s escapes to op %%%d", ci.Name, b.Ops[u].ID)
			}
			for ai, a := range b.Ops[u].Args {
				if a.Kind == ir.FromOp && a.X == b.Ops[j] {
					b.Ops[u].Args[ai] = custom.OutN(port)
				}
			}
		}
	}

	// Collapse: topologically order the window's non-member ops plus the
	// custom node. Edges: original edges between non-members; member edges
	// redirect to the custom node; edges from before the window are already
	// met. Original position breaks ties, so operations keep their order
	// unless correctness forces a move.
	//
	// Node ids are window offsets 0..wn-1 plus id wn for the custom node,
	// so the whole ordering runs on flat slices. Edges between two
	// non-members are already unique (d.Preds holds each pred once); only
	// edges touching the collapsed custom node can repeat, so two boolean
	// sides dedup them.
	lo, hi := first, last
	if !w.topo {
		lo, hi = 0, n-1
	}
	wn := hi - lo + 1
	customNode := wn
	pos := func(id int) int {
		if id == customNode {
			// The custom op inherits the position of its first member so
			// the linear order changes minimally.
			return first - lo
		}
		return id
	}
	w.cnt32 = reuse(w.cnt32, 2*(wn+1))
	indeg := w.cnt32[: wn+1 : wn+1]
	succCnt := w.cnt32[wn+1:]
	w.flags = reuse(w.flags, 2*wn+1)
	intoCustom := w.flags[:wn:wn] // non-member p already has edge p -> custom
	fromCustom := w.flags[wn:]    // target already has edge custom -> target
	edges := w.edges[:0]
	addEdge := func(from, to int) {
		if from == to {
			return
		}
		if to == customNode {
			if intoCustom[from] {
				return
			}
			intoCustom[from] = true
		} else if from == customNode {
			if fromCustom[to] {
				return
			}
			fromCustom[to] = true
		}
		indeg[to]++
		succCnt[from]++
		edges = append(edges, int64(from)<<32|int64(to))
	}
	mapNode := func(i int) int {
		if inSet[i] {
			return customNode
		}
		return i - lo
	}
	for i := lo; i <= hi; i++ {
		for _, p := range d.Preds[i] {
			if p >= lo {
				addEdge(mapNode(p), mapNode(i))
			}
		}
	}
	w.edges = edges
	// Successor lists carved from one backing array; appends below stay
	// within the per-node capacity windows and cannot allocate.
	w.succFlat = reuse(w.succFlat, len(edges))
	w.succs = reuse(w.succs, wn+1)
	succs := w.succs
	so := 0
	for i := 0; i <= wn; i++ {
		succs[i] = w.succFlat[so : so : so+int(succCnt[i])]
		so += int(succCnt[i])
	}
	for _, e := range edges {
		succs[e>>32] = append(succs[e>>32], int32(e&0xFFFFFFFF))
	}

	nodes := w.nodes[:0]
	for i := lo; i <= hi; i++ {
		if !inSet[i] {
			nodes = append(nodes, i-lo)
		}
	}
	nodes = append(nodes, customNode)
	w.nodes = nodes

	// Kahn's algorithm with position-ordered ready set.
	ready := w.ready[:0]
	for _, id := range nodes {
		if indeg[id] == 0 {
			ready = append(ready, id)
		}
	}
	order := w.order[:0]
	for len(ready) > 0 {
		// Pick the ready node with the smallest original position.
		bi := 0
		for i := 1; i < len(ready); i++ {
			if pos(ready[i]) < pos(ready[bi]) {
				bi = i
			}
		}
		id := ready[bi]
		ready = append(ready[:bi], ready[bi+1:]...)
		order = append(order, id)
		for _, s := range succs[id] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, int(s))
			}
		}
	}
	w.ready, w.order = ready, order
	if len(order) != len(nodes) {
		return fmt.Errorf("compile: replacement of %s created a dependence cycle", ci.Name)
	}

	newOps := append(w.newOps[:0], b.Ops[:lo]...)
	for _, id := range order {
		if id == customNode {
			newOps = append(newOps, custom)
		} else {
			newOps = append(newOps, b.Ops[lo+id])
		}
	}
	newOps = append(newOps, b.Ops[hi+1:n]...)
	// Keep the terminator last if one exists (topo edges already force it,
	// but a custom op appended after a branch must not trail it).
	for i, op := range newOps {
		if op.Code.IsBranch() && i != len(newOps)-1 {
			newOps = append(append(newOps[:i], newOps[i+1:]...), op)
			break
		}
	}
	w.newOps = b.Ops[:0]
	b.Ops = newOps
	w.topo = true
	d.Reanalyze(b)
	return nil
}
