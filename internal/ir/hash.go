package ir

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sync"
)

// Fingerprint returns the exact content hash of the program: a hex SHA-256
// string over everything the pipeline reads. It covers the program name
// and, per block in order, the block name, successors, profile weight and
// ops in program order — opcodes, custom-op identities (name, latency,
// result count and whether the unit reads memory), operand wiring,
// immediates, input and live-out registers. Op IDs are not hashed:
// operands refer to their producers by block position, so renumbering IDs
// leaves the hash alone, while reordering any two ops — pure or not —
// changes it. The pipeline reads op order (match priority and the
// reordering algorithm depend on it), so equal fingerprints mean the
// pipeline sees the same input.
//
// The hash is the program identity of the customization service's cache
// key (internal/server) and of the cluster router's affinity ring
// (internal/cluster); BlockHash is its per-block counterpart.
func Fingerprint(p *Program) string {
	st := hashPool.Get().(*hashState)
	defer hashPool.Put(st)
	h := st.h
	h.Reset()
	buf := appendString(st.buf[:0], p.Name)
	buf = binary.AppendUvarint(buf, uint64(len(p.Blocks)))
	for _, b := range p.Blocks {
		h.Write(buf)
		buf = appendString(buf[:0], b.Name)
		buf = binary.AppendUvarint(buf, uint64(len(b.Succs)))
		for _, s := range b.Succs {
			buf = appendString(buf, s)
		}
		buf = st.appendBlock(buf, b)
	}
	h.Write(buf)
	st.buf = buf
	st.sum = h.Sum(st.sum[:0])
	return hex.EncodeToString(st.sum)
}

// BlockHash returns the program-order structure hash of b: its profile
// weight and its ops in order — opcodes, custom-op identities, operand
// wiring (producer positions, registers, immediates) and live-out
// registers. It is the block key of the exploration corpus
// (internal/corpus), whose entries replay as op-index sets, so any
// reordering must produce a new key. Its bytes are part of the corpus's
// on-disk format: changing the encoding orphans every stored entry.
func BlockHash(b *Block) string {
	st := hashPool.Get().(*hashState)
	defer hashPool.Put(st)
	st.buf = st.appendBlock(st.buf[:0], b)
	sum := sha256.Sum256(st.buf)
	return hex.EncodeToString(sum[:])
}

// hashState is the reusable scratch of one hash: the byte buffer blocks
// are encoded into, the op → position map operands resolve through, and
// Fingerprint's streaming hasher and digest. Pooling it keeps hashing
// allocation-light on the service hot path, where every request is
// fingerprinted before the cache lookup.
type hashState struct {
	buf []byte
	pos map[*Op]int
	h   hash.Hash
	sum []byte
}

var hashPool = sync.Pool{New: func() any {
	return &hashState{pos: make(map[*Op]int), h: sha256.New()}
}}

// appendString appends s length-prefixed, so adjacent fields cannot run
// into each other.
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// appendBlock appends b's encoding: weight, op count, then each op as its
// opcode, custom-op identity (a marker byte that also says whether the unit
// reads memory, then name, latency and result count), arguments and
// live-out registers. Every
// field is fixed-width or count-prefixed, so the encoding parses
// unambiguously front to back.
func (st *hashState) appendBlock(buf []byte, b *Block) []byte {
	clear(st.pos)
	for i, op := range b.Ops {
		st.pos[op] = i
	}
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(b.Weight))
	buf = binary.AppendUvarint(buf, uint64(len(b.Ops)))
	for _, op := range b.Ops {
		buf = binary.AppendUvarint(buf, uint64(op.Code))
		if op.Custom != nil {
			// 0x01 marks a custom op, 0x02 one that reads memory: a memory
			// unit issues on other slots and is ordered against stores.
			if op.Custom.UsesMemory {
				buf = append(buf, 0x02)
			} else {
				buf = append(buf, 0x01)
			}
			buf = appendString(buf, op.Custom.Name)
			buf = binary.AppendVarint(buf, int64(op.Custom.Latency))
			buf = binary.AppendVarint(buf, int64(op.Custom.NumOut))
		} else {
			buf = append(buf, 0x00)
		}
		buf = binary.AppendUvarint(buf, uint64(len(op.Args)))
		for _, a := range op.Args {
			buf = append(buf, byte(a.Kind))
			switch a.Kind {
			case FromOp:
				buf = binary.AppendVarint(buf, int64(st.pos[a.X]))
				buf = binary.AppendVarint(buf, int64(a.Idx))
			case FromReg:
				buf = binary.AppendUvarint(buf, uint64(a.Reg))
			case Imm:
				buf = binary.LittleEndian.AppendUint32(buf, a.Val)
			}
		}
		buf = binary.AppendUvarint(buf, uint64(op.Dest))
		buf = binary.AppendUvarint(buf, uint64(len(op.Dests)))
		for _, r := range op.Dests {
			buf = binary.AppendUvarint(buf, uint64(r))
		}
	}
	return buf
}
