package ir

import "fmt"

// DFG is the dataflow graph of one block: dependence edges between the
// block's operations, plus the unit-latency critical-path analysis the guide
// function consumes. Edge sets include memory-ordering and terminator edges,
// so a topological order of the DFG is always a legal execution order.
type DFG struct {
	Block *Block
	// Pos maps an op to its index in Block.Ops at analysis time.
	Pos map[*Op]int
	// Preds[i] and Succs[i] are dependence edges by op index. Data,
	// memory-ordering, and terminator edges are merged; duplicates removed.
	Preds, Succs [][]int
	// DataPreds[i] holds only true dataflow predecessors of op i.
	DataPreds [][]int
	// DataSuccs[i] holds the ops that consume one of op i's results
	// through a data edge (the inverse of DataPreds), in Succs order.
	// Returned by Users; callers must not modify the shared slices.
	DataSuccs [][]int
	// codeStart/codeIdx index op positions by opcode: ops with opcode c
	// are codeIdx[codeStart[c]:codeStart[c+1]], ascending.
	codeStart []int32
	codeIdx   []int32
	// Height[i] is the longest unit-latency path from op i to any sink,
	// counting i itself (so a sink has height 1).
	Height []int
	// Depth[i] is the longest unit-latency path from any source to op i,
	// counting i itself (so a source has depth 1).
	Depth []int
	// Slack[i] is the number of cycles op i can be delayed without
	// lengthening the block's critical path (0 = on the critical path).
	Slack []int
	// CritLen is the length in ops of the longest dependence path.
	CritLen int
}

// Analyze builds the DFG for b's current operation order.
func Analyze(b *Block) *DFG {
	n := len(b.Ops)
	hds := make([]int, 3*n)
	d := &DFG{
		Block:     b,
		Pos:       make(map[*Op]int, n),
		Preds:     make([][]int, n),
		Succs:     make([][]int, n),
		DataPreds: make([][]int, n),
		Height:    hds[:n:n],
		Depth:     hds[n : 2*n : 2*n],
		Slack:     hds[2*n:],
	}
	for i, op := range b.Ops {
		d.Pos[op] = i
	}

	// Edges are gathered into one flat list first, then distributed into
	// per-node slices carved from shared backing arrays — the per-node
	// append-grown slices this replaces dominated the allocation profile of
	// a compile. Dedup uses an n×n bit matrix. All data edges are inserted
	// before any ordering edge, so a unique edge's data flag is fixed at
	// first insertion and DataPreds stays the data-restricted subsequence
	// of Preds, exactly as incremental insertion produced.
	seen := make([]uint64, (n*n+63)/64)
	cnt := make([]int32, 4*n)
	predCnt := cnt[:n:n]
	succCnt := cnt[n : 2*n : 2*n]
	dataCnt := cnt[2*n : 3*n : 3*n]
	dataSuccCnt := cnt[3*n:]
	edges := make([]uint64, 0, 4*n)
	addEdge := func(from, to int, data bool) {
		if from == to {
			return
		}
		idx := from*n + to
		if seen[idx>>6]>>(uint(idx)&63)&1 != 0 {
			return
		}
		seen[idx>>6] |= 1 << (uint(idx) & 63)
		e := uint64(from)<<33 | uint64(to)<<1
		if data {
			e |= 1
			dataCnt[to]++
			dataSuccCnt[from]++
		}
		edges = append(edges, e)
		predCnt[to]++
		succCnt[from]++
	}

	// Data edges.
	for i, op := range b.Ops {
		for _, a := range op.Args {
			if a.Kind == FromOp {
				j, ok := d.Pos[a.X]
				if !ok {
					panic(fmt.Sprintf("ir: op %%%d in block %q uses op not in block", op.ID, b.Name))
				}
				addEdge(j, i, true)
			}
		}
	}

	// Memory ordering: with no alias analysis, a store is ordered after
	// every earlier memory op, and a load after the latest earlier store.
	// Custom instructions containing loads order exactly like loads.
	lastStore := -1
	var loadsSinceStore []int
	readsMemory := func(op *Op) bool {
		return op.Code.IsLoad() || (op.Code == Custom && op.Custom != nil && op.Custom.UsesMemory)
	}
	for i, op := range b.Ops {
		switch {
		case op.Code.IsStore():
			if lastStore >= 0 {
				addEdge(lastStore, i, false)
			}
			for _, l := range loadsSinceStore {
				addEdge(l, i, false)
			}
			lastStore = i
			loadsSinceStore = loadsSinceStore[:0]
		case readsMemory(op):
			if lastStore >= 0 {
				addEdge(lastStore, i, false)
			}
			loadsSinceStore = append(loadsSinceStore, i)
		}
	}

	// Terminators stay last: every other op precedes the terminator.
	for i, op := range b.Ops {
		if op.Code.IsBranch() {
			for j := range b.Ops {
				if j != i && !b.Ops[j].Code.IsBranch() {
					addEdge(j, i, false)
				}
			}
		}
	}

	// Distribute the edge list. Each per-node slice is a zero-length,
	// capacity-bounded window into a shared backing array, so the appends
	// below cannot allocate and edge list order (= historical insertion
	// order) is preserved per node. DataSuccs[i] is the data-restricted
	// subsequence of Succs[i], matching what the old post-pass computed.
	edgeFlat := make([]int, 2*len(edges))
	predFlat := edgeFlat[:len(edges):len(edges)]
	succFlat := edgeFlat[len(edges):]
	dataTotal := 0
	for i := 0; i < n; i++ {
		dataTotal += int(dataCnt[i])
	}
	bothData := make([]int, 2*dataTotal)
	dataFlat := bothData[:dataTotal:dataTotal]
	dataSuccFlat := bothData[dataTotal:]
	d.DataSuccs = make([][]int, n)
	po, so, do, dso := 0, 0, 0, 0
	for i := 0; i < n; i++ {
		d.Preds[i] = predFlat[po : po : po+int(predCnt[i])]
		po += int(predCnt[i])
		d.Succs[i] = succFlat[so : so : so+int(succCnt[i])]
		so += int(succCnt[i])
		d.DataPreds[i] = dataFlat[do : do : do+int(dataCnt[i])]
		do += int(dataCnt[i])
		d.DataSuccs[i] = dataSuccFlat[dso : dso : dso+int(dataSuccCnt[i])]
		dso += int(dataSuccCnt[i])
	}
	for _, e := range edges {
		from, to := int(e>>33), int(e>>1&0xFFFFFFFF)
		d.Preds[to] = append(d.Preds[to], from)
		d.Succs[from] = append(d.Succs[from], to)
		if e&1 != 0 {
			d.DataPreds[to] = append(d.DataPreds[to], from)
			d.DataSuccs[from] = append(d.DataSuccs[from], to)
		}
	}

	// Height (reverse topological: ops are in a legal order by construction,
	// but edits may have perturbed it, so iterate to fixpoint via DFS).
	order := d.topo()
	for k := n - 1; k >= 0; k-- {
		i := order[k]
		h := 1
		for _, s := range d.Succs[i] {
			if d.Height[s]+1 > h {
				h = d.Height[s] + 1
			}
		}
		d.Height[i] = h
	}
	for k := 0; k < n; k++ {
		i := order[k]
		dep := 1
		for _, p := range d.Preds[i] {
			if d.Depth[p]+1 > dep {
				dep = d.Depth[p] + 1
			}
		}
		d.Depth[i] = dep
		if d.Depth[i]+d.Height[i]-1 > d.CritLen {
			d.CritLen = d.Depth[i] + d.Height[i] - 1
		}
	}
	for i := 0; i < n; i++ {
		d.Slack[i] = d.CritLen - (d.Depth[i] + d.Height[i] - 1)
	}

	// Opcode index: counting sort of op positions by opcode, so the
	// matcher can seed from just the ops of one opcode.
	const codeL = int(MaxOpcode) + 2
	codeBuf := make([]int32, 2*codeL)
	d.codeStart = codeBuf[:codeL:codeL]
	for _, op := range b.Ops {
		d.codeStart[int(op.Code)+1]++
	}
	for c := 1; c < len(d.codeStart); c++ {
		d.codeStart[c] += d.codeStart[c-1]
	}
	d.codeIdx = make([]int32, n)
	fill := codeBuf[codeL:]
	copy(fill, d.codeStart)
	for i, op := range b.Ops {
		d.codeIdx[fill[op.Code]] = int32(i)
		fill[op.Code]++
	}
	return d
}

// OpsByCode returns the ascending op indices whose opcode is c. The slice
// is shared; callers must not modify it.
func (d *DFG) OpsByCode(c Opcode) []int32 {
	if c >= MaxOpcode {
		return nil
	}
	return d.codeIdx[d.codeStart[c]:d.codeStart[c+1]]
}

// topo returns a topological order of the op indices. It panics if the
// dependence graph is cyclic, which indicates a malformed block.
func (d *DFG) topo() []int {
	n := len(d.Block.Ops)
	indeg := make([]int32, n)
	for i := 0; i < n; i++ {
		indeg[i] = int32(len(d.Preds[i]))
	}
	// order doubles as the FIFO work queue: dequeued nodes are exactly the
	// emitted prefix, so a head cursor over order replaces a second slice.
	// Seeding in program order keeps output deterministic.
	order := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			order = append(order, i)
		}
	}
	for h := 0; h < len(order); h++ {
		i := order[h]
		for _, s := range d.Succs[i] {
			indeg[s]--
			if indeg[s] == 0 {
				order = append(order, s)
			}
		}
	}
	if len(order) != n {
		panic(fmt.Sprintf("ir: dependence cycle in block %q", d.Block.Name))
	}
	return order
}

// TopoOrder returns a legal execution order of the block's op indices.
func (d *DFG) TopoOrder() []int { return d.topo() }

// Users returns, for each op index, the indices of ops that consume one of
// its results through a data edge. The slice is shared with the DFG;
// callers must not modify it.
func (d *DFG) Users(i int) []int { return d.DataSuccs[i] }

// Validate checks structural invariants: every FromOp operand references an
// op in the same block that precedes first use in some topological order
// (i.e. no cycles), arities match, opcodes are known, Custom ops carry
// their instruction spec, and terminators are last. It is the boundary
// guard of every public pipeline entry point: a program that passes never
// panics the analyzer, so Validate itself must reject malformed structure
// (nil blocks/ops, unknown opcodes) with errors, not crashes.
func Validate(p *Program) error {
	if p == nil {
		return fmt.Errorf("ir: nil program")
	}
	for bi, b := range p.Blocks {
		if b == nil {
			return fmt.Errorf("ir: program %q block %d is nil", p.Name, bi)
		}
		pos := make(map[*Op]int, len(b.Ops))
		for i, op := range b.Ops {
			if op == nil {
				return fmt.Errorf("ir: block %q op %d is nil", b.Name, i)
			}
			if op.Code >= MaxOpcode {
				return fmt.Errorf("ir: block %q op %%%d has unknown opcode %d", b.Name, op.ID, op.Code)
			}
			if (op.Code == Custom) != (op.Custom != nil) {
				return fmt.Errorf("ir: block %q op %%%d: Custom spec and opcode disagree", b.Name, op.ID)
			}
			pos[op] = i
		}
		// Register writes commit at block exit, so a register must have a
		// single writer per block or reordering could change which wins.
		defs := make(map[Reg]int)
		for _, op := range b.Ops {
			regs := op.Dests
			if op.Dest != 0 {
				regs = append([]Reg{op.Dest}, op.Dests...)
			}
			for _, r := range regs {
				if r == 0 {
					continue
				}
				defs[r]++
				if defs[r] > 1 {
					return fmt.Errorf("ir: block %q defines %s more than once", b.Name, r)
				}
			}
		}
		for i, op := range b.Ops {
			if ar := op.Code.Arity(); ar >= 0 && len(op.Args) != ar {
				// Ret's value is optional.
				if !(op.Code == Ret && len(op.Args) == 0) {
					return fmt.Errorf("ir: block %q op %%%d (%s): got %d args, want %d",
						b.Name, op.ID, op.Code, len(op.Args), ar)
				}
			}
			for _, a := range op.Args {
				if a.Kind == FromOp {
					if _, ok := pos[a.X]; !ok {
						return fmt.Errorf("ir: block %q op %%%d uses op from another block", b.Name, op.ID)
					}
					if a.Idx != 0 && a.X.Code != Custom {
						return fmt.Errorf("ir: block %q op %%%d uses result %d of non-custom op", b.Name, op.ID, a.Idx)
					}
					if a.X.Code == Custom && (a.Idx < 0 || a.Idx >= a.X.Custom.NumOut) {
						return fmt.Errorf("ir: block %q op %%%d uses out-of-range result %d", b.Name, op.ID, a.Idx)
					}
				}
			}
			if op.Code.IsBranch() && i != len(b.Ops)-1 {
				return fmt.Errorf("ir: block %q has terminator %%%d before end", b.Name, op.ID)
			}
		}
		// Analyze panics on cycles; convert to error.
		if err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("%v", r)
				}
			}()
			Analyze(b)
			return nil
		}(); err != nil {
			return err
		}
	}
	return nil
}
