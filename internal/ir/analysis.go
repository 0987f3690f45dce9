package ir

import (
	"fmt"
	"slices"
)

// DFG is the dataflow graph of one block: dependence edges between the
// block's operations, plus the unit-latency critical-path analysis the guide
// function consumes. Edge sets include memory-ordering and terminator edges,
// so a topological order of the DFG is always a legal execution order.
type DFG struct {
	Block *Block
	// Pos indexes op positions: Pos.Lookup(op) is op's index in Block.Ops
	// at analysis time.
	Pos OpIndex
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

	// The backing arrays the per-op slices above are carved from, kept so
	// Reanalyze can rebuild into them: edgeBuf holds Preds then Succs,
	// dataBuf DataPreds then DataSuccs, hds Height, Depth and Slack, and
	// codeBuf codeStart followed by its fill cursors.
	edgeBuf, dataBuf, hds []int
	codeBuf               []int32
	// scratch holds the buffers only a build reads. Analyze drops them;
	// Reanalyze keeps them for its next call.
	scratch *analyzeScratch
}

// analyzeScratch is the working storage of one DFG build.
type analyzeScratch struct {
	seen  []uint64 // n×n edge-dedup bit matrix
	cnt   []int32  // per-op pred, succ, data-pred and data-succ counts
	edges []uint64 // flat edge list, packed from<<33 | to<<1 | data
	loads []int    // loads since the latest store
	indeg []int32  // topoInto's in-degrees
	order []int    // topoInto's order
}

// Analyze builds the DFG for b's current operation order.
func Analyze(b *Block) *DFG {
	d := new(DFG)
	d.build(b, new(analyzeScratch))
	return d
}

// Reanalyze rebuilds d as the DFG of b's current operation order, reusing
// d's buffers: once they have grown to a block's size, rebuilding for a
// block no larger allocates nothing. The result equals Analyze(b) field for
// field. Every slice d handed out before (Preds, Users, OpsByCode, Height
// and the rest) is overwritten, so only a DFG's sole owner may recycle it:
// never one that a Candidate, an Occurrence or another goroutine still
// reads.
func (d *DFG) Reanalyze(b *Block) {
	if d.scratch == nil {
		d.scratch = new(analyzeScratch)
	}
	d.build(b, d.scratch)
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

// build fills d for b, growing d's buffers and sc as needed.
func (d *DFG) build(b *Block, sc *analyzeScratch) {
	n := len(b.Ops)
	d.Block = b
	d.CritLen = 0
	d.Pos.reset(b.Ops)
	d.Preds = reuse(d.Preds, n)
	d.Succs = reuse(d.Succs, n)
	d.DataPreds = reuse(d.DataPreds, n)
	d.DataSuccs = reuse(d.DataSuccs, n)
	d.hds = reuse(d.hds, 3*n)
	d.Height = d.hds[:n:n]
	d.Depth = d.hds[n : 2*n : 2*n]
	d.Slack = d.hds[2*n : 3*n : 3*n]

	// Edges are gathered into one flat list first, then distributed into
	// per-node slices carved from shared backing arrays — the per-node
	// append-grown slices this replaces dominated the allocation profile of
	// a compile. Dedup uses an n×n bit matrix. All data edges are inserted
	// before any ordering edge, so a unique edge's data flag is fixed at
	// first insertion and DataPreds stays the data-restricted subsequence
	// of Preds, exactly as incremental insertion produced.
	sc.seen = reuse(sc.seen, (n*n+63)/64)
	seen := sc.seen
	sc.cnt = reuse(sc.cnt, 4*n)
	predCnt := sc.cnt[:n:n]
	succCnt := sc.cnt[n : 2*n : 2*n]
	dataCnt := sc.cnt[2*n : 3*n : 3*n]
	dataSuccCnt := sc.cnt[3*n:]
	edges := slices.Grow(sc.edges[:0], 4*n)
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
				j, ok := d.Pos.Lookup(a.X)
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
	loadsSinceStore := sc.loads[:0]
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
	sc.loads = loadsSinceStore

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
	sc.edges = edges

	// Distribute the edge list. Each per-node slice is a zero-length,
	// capacity-bounded window into a shared backing array, so the appends
	// below cannot allocate and edge list order (= historical insertion
	// order) is preserved per node. DataSuccs[i] is the data-restricted
	// subsequence of Succs[i], matching what the old post-pass computed.
	d.edgeBuf = reuse(d.edgeBuf, 2*len(edges))
	predFlat := d.edgeBuf[:len(edges):len(edges)]
	succFlat := d.edgeBuf[len(edges):]
	dataTotal := 0
	for i := 0; i < n; i++ {
		dataTotal += int(dataCnt[i])
	}
	d.dataBuf = reuse(d.dataBuf, 2*dataTotal)
	dataFlat := d.dataBuf[:dataTotal:dataTotal]
	dataSuccFlat := d.dataBuf[dataTotal:]
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
	sc.indeg = reuse(sc.indeg, n)
	sc.order = d.topoInto(sc.indeg, slices.Grow(sc.order[:0], n))
	order := sc.order
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
	d.codeBuf = reuse(d.codeBuf, 2*codeL)
	d.codeStart = d.codeBuf[:codeL:codeL]
	for _, op := range b.Ops {
		d.codeStart[int(op.Code)+1]++
	}
	for c := 1; c < len(d.codeStart); c++ {
		d.codeStart[c] += d.codeStart[c-1]
	}
	d.codeIdx = reuse(d.codeIdx, n)
	fill := d.codeBuf[codeL:]
	copy(fill, d.codeStart)
	for i, op := range b.Ops {
		d.codeIdx[fill[op.Code]] = int32(i)
		fill[op.Code]++
	}
}

// OpIndex maps each op of a block to its position in Block.Ops: a flat
// open-addressing table keyed by op ID, at most half full. Slots compare
// ops by pointer, so ops sharing an ID only share a probe chain.
type OpIndex struct {
	slots []opSlot
	shift uint8 // 64 - log2(len(slots))
}

type opSlot struct {
	op  *Op
	pos int
}

// home is the first slot an op with this ID probes (Fibonacci hashing).
func (x *OpIndex) home(id int) int {
	return int(uint64(id) * 0x9E3779B97F4A7C15 >> x.shift)
}

// reset indexes ops, reusing the table when it is large enough.
func (x *OpIndex) reset(ops []*Op) {
	size, shift := 1, uint8(64)
	for size < 2*len(ops) {
		size, shift = size<<1, shift-1
	}
	x.slots, x.shift = reuse(x.slots, size), shift
	for i, op := range ops {
		h := x.home(op.ID)
		for x.slots[h].op != nil {
			h = (h + 1) & (size - 1)
		}
		x.slots[h] = opSlot{op, i}
	}
}

// Lookup returns op's index in Block.Ops, and false when op is not one of
// the block's ops.
func (x *OpIndex) Lookup(op *Op) (int, bool) {
	if op == nil || len(x.slots) == 0 {
		return 0, false
	}
	for h := x.home(op.ID); ; h = (h + 1) & (len(x.slots) - 1) {
		switch x.slots[h].op {
		case op:
			return x.slots[h].pos, true
		case nil:
			return 0, false
		}
	}
}

// OpsByCode returns the ascending op indices whose opcode is c. The slice
// is shared; callers must not modify it.
func (d *DFG) OpsByCode(c Opcode) []int32 {
	if c >= MaxOpcode {
		return nil
	}
	return d.codeIdx[d.codeStart[c]:d.codeStart[c+1]]
}

// topoInto appends a topological order of the op indices to order, using
// indeg (one zeroed entry per op) as scratch, and returns it. It panics if
// the dependence graph is cyclic, which indicates a malformed block.
func (d *DFG) topoInto(indeg []int32, order []int) []int {
	n := len(d.Block.Ops)
	for i := 0; i < n; i++ {
		indeg[i] = int32(len(d.Preds[i]))
	}
	// order doubles as the FIFO work queue: dequeued nodes are exactly the
	// emitted prefix, so a head cursor over order replaces a second slice.
	// Seeding in program order keeps output deterministic.
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
func (d *DFG) TopoOrder() []int {
	n := len(d.Block.Ops)
	return d.topoInto(make([]int32, n), make([]int, 0, n))
}

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
