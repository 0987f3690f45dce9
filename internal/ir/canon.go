package ir

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
)

// opIsOrdered reports whether the op's position relative to other ordered
// ops is semantically meaningful (memory accesses and control flow).
func opIsOrdered(op *Op) bool {
	if op.Code == Custom {
		return op.Custom.UsesMemory
	}
	return op.Code.IsMemory() || op.Code.IsBranch()
}

// Field markers of the serialized member record. Every field is
// fixed-width or length-prefixed, so the record parses unambiguously front
// to back; the markers only make the encoding self-describing enough that
// no two field sequences can collide. The values are part of the stored
// shape hashes, so they never change.
const (
	fpCustom byte = 0xF0
	fpOrd    byte = 0xF1
	fpArgOp  byte = 0xF2
	fpArgImm byte = 0xF4
	fpArgExt byte = 0xF7 // external input
)

// SubgraphFingerprint returns a canonical shape hash of the subgraph of b
// induced by set. The hash identifies the candidate's datapath shape —
// opcode structure, internal dataflow (including reconvergent fan-out),
// which member values escape, and how external inputs are shared — while
// abstracting everything that varies between occurrences of the same
// kernel: op IDs and block positions of pure ops, concrete register names
// (external inputs are numbered by first use), and live-out register
// numbers (only escape-ness matters).
//
// Two occurrences of the same shape hash equal — that is what lets the
// candidate corpus (internal/corpus) group memoized candidates into
// isomorphism classes compatible with graph.Shape.Signature — and unequal
// hashes are common for genuinely different datapaths. The key is
// conservative: a false split only fragments corpus statistics,
// while replay correctness never rides on this hash (the corpus replays
// under BlockHash, the position-exact block key, not the shape hash).
func SubgraphFingerprint(b *Block, set OpSet) string {
	members := set.Sorted()
	pos := make(map[*Op]int, len(b.Ops))
	for i, op := range b.Ops {
		pos[op] = i
	}
	inSet := func(x *Op) bool {
		i, ok := pos[x]
		return ok && set.Has(i)
	}

	// External inputs are numbered by first appearance, walking members in
	// block order and each op's arguments in order, keyed by value identity:
	// two argument slots reading the same external value share one ordinal,
	// so reconvergent external fan-in is part of the shape.
	type extKey struct {
		kind OperandKind
		x    *Op
		idx  int
		reg  Reg
	}
	ext := make(map[extKey]int)
	extOrd := func(a Operand) int {
		k := extKey{kind: a.Kind}
		if a.Kind == FromOp {
			k.x, k.idx = a.X, a.Idx
		} else {
			k.reg = a.Reg
		}
		if ord, ok := ext[k]; ok {
			return ord
		}
		ext[k] = len(ext)
		return ext[k]
	}

	// Pass 1: side-effect ordinals among members, external-input ordinals,
	// internal fan-out counts, and escape flags. Escape-ness needs the whole
	// block: a member escapes when it defines a live-out register or feeds
	// any op outside the set.
	ords := make(map[*Op]int)
	extOf := make(map[*Op][]int, len(members)) // per-member arg ordinals, -1 = internal
	fanout := make(map[*Op]int)
	escapes := make(map[*Op]bool, len(members))
	for _, i := range members {
		op := b.Ops[i]
		if opIsOrdered(op) {
			ords[op] = len(ords)
		}
		slots := make([]int, len(op.Args))
		for ai, a := range op.Args {
			switch {
			case a.Kind == FromOp && inSet(a.X):
				slots[ai] = -1
				fanout[a.X]++
			case a.Kind == Imm:
				slots[ai] = -1
			default:
				slots[ai] = extOrd(a)
			}
		}
		extOf[op] = slots
		e := op.Dest != 0
		for _, r := range op.Dests {
			if r != 0 {
				e = true
			}
		}
		escapes[op] = e
	}
	for i, op := range b.Ops {
		if set.Has(i) {
			continue
		}
		for _, a := range op.Args {
			if a.Kind == FromOp && inSet(a.X) {
				escapes[a.X] = true
			}
		}
	}

	// Pass 2: per-member structural sums, memoized over the induced graph.
	memo := make(map[*Op][32]byte, len(members))
	var scratch []byte
	var memberSum func(op *Op) [32]byte
	memberSum = func(op *Op) [32]byte {
		if s, ok := memo[op]; ok {
			return s
		}
		for _, a := range op.Args {
			if a.Kind == FromOp && inSet(a.X) {
				memberSum(a.X)
			}
		}
		buf := scratch[:0]
		if op.Code == Custom {
			buf = append(buf, fpCustom)
			buf = binary.AppendUvarint(buf, uint64(len(op.Custom.Name)))
			buf = append(buf, op.Custom.Name...)
			buf = binary.AppendVarint(buf, int64(op.Custom.Latency))
			buf = binary.AppendVarint(buf, int64(op.Custom.NumOut))
		} else {
			buf = binary.LittleEndian.AppendUint16(buf, uint16(op.Code))
		}
		if ord, ok := ords[op]; ok {
			buf = append(buf, fpOrd)
			buf = binary.AppendUvarint(buf, uint64(ord))
		}
		for ai, a := range op.Args {
			switch {
			case a.Kind == FromOp && inSet(a.X):
				s := memo[a.X]
				buf = append(buf, fpArgOp)
				buf = append(buf, s[:]...)
				buf = binary.AppendVarint(buf, int64(a.Idx))
			case a.Kind == Imm:
				buf = append(buf, fpArgImm)
				buf = binary.LittleEndian.AppendUint32(buf, a.Val)
			default:
				buf = append(buf, fpArgExt)
				buf = binary.AppendUvarint(buf, uint64(extOf[op][ai]))
				if a.Kind == FromOp {
					buf = binary.AppendVarint(buf, int64(a.Idx))
				}
			}
		}
		scratch = buf
		sum := sha256.Sum256(buf)
		memo[op] = sum
		return sum
	}

	// The shape is the sorted multiset of member records: structural sum
	// plus internal fan-out and escape flag. Fan-out and escape-ness live
	// outside the recursive sum (a consumer's identity is only known after
	// its own sum exists), and they are what separates, say, one value
	// feeding two members from two structurally identical values feeding
	// one member each.
	recs := make([][32 + 9]byte, 0, len(members))
	for _, i := range members {
		op := b.Ops[i]
		var rec [32 + 9]byte
		sum := memberSum(op)
		copy(rec[:32], sum[:])
		binary.LittleEndian.PutUint64(rec[32:40], uint64(fanout[op]))
		if escapes[op] {
			rec[40] = 1
		}
		recs = append(recs, rec)
	}
	slices.SortFunc(recs, func(a, b [32 + 9]byte) int { return bytes.Compare(a[:], b[:]) })
	h := sha256.New()
	fmt.Fprintf(h, "subgraph ops %d ext %d\n", len(members), len(ext))
	for i := range recs {
		h.Write(recs[i][:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
