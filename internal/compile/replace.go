package compile

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/ir"
)

// replaceMatch rewrites block b, replacing the matched subgraph with one
// custom instruction whose semantics evaluate the substituted pattern.
//
// Placement follows the paper: the custom instruction must come after every
// predecessor of the matched ops and before every successor. The block is
// re-linearized with the match collapsed to a single node; a topological
// order with original position as the tie-break implements exactly the
// paper's reorganization (successors scheduled before the last predecessor
// are moved after it, along with the operations depending on them).
func replaceMatch(b *ir.Block, d *ir.DFG, pattern *graph.Shape, m graph.Match, ci *ir.CustomInst) error {
	n := len(b.Ops)

	// Build the custom op (appended; we rebuild the order below).
	custom := b.EmitCustom(ci, m.Inputs...)

	// Wire outputs: external users of each output node's value read the
	// custom result port; live-out registers transfer to the custom op.
	outPort := make(map[*ir.Op]int)
	for k, nodeIdx := range pattern.Outputs {
		op := b.Ops[m.NodeToOp[nodeIdx]]
		outPort[op] = k
		if op.Dest != 0 {
			custom.Dests[k] = op.Dest
		}
	}
	inSetArr := make([]bool, n)
	for i := range m.Set {
		if i >= 0 && i < n {
			inSetArr[i] = true
		}
	}
	inSet := func(i int) bool { return inSetArr[i] }
	for i, op := range b.Ops {
		if i < n && inSet(i) || op == custom {
			continue
		}
		for ai := range op.Args {
			a := op.Args[ai]
			if a.Kind != ir.FromOp {
				continue
			}
			j, ok := d.Pos[a.X]
			if !ok || !inSet(j) {
				continue
			}
			port, isOut := outPort[a.X]
			if !isOut {
				return fmt.Errorf("compile: internal value of %s escapes to op %%%d", ci.Name, op.ID)
			}
			op.Args[ai] = custom.OutN(port)
		}
	}

	// Collapse: topologically order non-member ops plus the custom node.
	// Edges: original edges between non-members; member edges redirect to
	// the custom node. Original position breaks ties, so operations keep
	// their order unless correctness forces a move.
	//
	// Node ids are op indices 0..n-1 plus id n for the custom node, so the
	// whole ordering runs on flat slices. Edges between two non-members are
	// already unique (d.Preds holds each pred once); only edges touching
	// the collapsed custom node can repeat, so two boolean sides dedup them.
	customNode := n
	firstMember := n
	for i := range m.Set {
		if i < firstMember {
			firstMember = i
		}
	}
	pos := func(id int) int {
		if id == customNode {
			// The custom op inherits the position of its first member so
			// the linear order changes minimally.
			return firstMember
		}
		return id
	}
	buf32 := make([]int32, 2*(n+1))
	indeg := buf32[: n+1 : n+1]
	succCnt := buf32[n+1:]
	flags := make([]bool, 2*n+1)
	intoCustom := flags[:n:n] // non-member p already has edge p -> custom
	fromCustom := flags[n:]   // target already has edge custom -> target
	edges := make([]int64, 0, 4*n)
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
		if inSet(i) {
			return customNode
		}
		return i
	}
	for i := 0; i < n; i++ {
		for _, p := range d.Preds[i] {
			addEdge(mapNode(p), mapNode(i))
		}
	}
	// Successor lists carved from one backing array; appends below stay
	// within the per-node capacity windows and cannot allocate.
	succFlat := make([]int32, len(edges))
	succs := make([][]int32, n+1)
	so := 0
	for i := 0; i <= n; i++ {
		succs[i] = succFlat[so : so : so+int(succCnt[i])]
		so += int(succCnt[i])
	}
	for _, e := range edges {
		succs[e>>32] = append(succs[e>>32], int32(e&0xFFFFFFFF))
	}

	nodes := make([]int, 0, n+1-len(m.Set))
	for i := 0; i < n; i++ {
		if !inSet(i) {
			nodes = append(nodes, i)
		}
	}
	nodes = append(nodes, customNode)

	// Kahn's algorithm with position-ordered ready set.
	ready := make([]int, 0, len(nodes))
	for _, id := range nodes {
		if indeg[id] == 0 {
			ready = append(ready, id)
		}
	}
	order := make([]int, 0, len(nodes))
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
	if len(order) != len(nodes) {
		return fmt.Errorf("compile: replacement of %s created a dependence cycle", ci.Name)
	}

	newOps := make([]*ir.Op, 0, len(order))
	for _, id := range order {
		if id == customNode {
			newOps = append(newOps, custom)
		} else {
			newOps = append(newOps, b.Ops[id])
		}
	}
	// Keep the terminator last if one exists (topo edges already force it,
	// but a custom op appended after a branch must not trail it).
	for i, op := range newOps {
		if op.Code.IsBranch() && i != len(newOps)-1 {
			newOps = append(append(newOps[:i], newOps[i+1:]...), op)
			break
		}
	}
	b.Ops = newOps
	return nil
}
