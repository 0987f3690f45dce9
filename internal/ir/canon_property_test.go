package ir

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// pureScalarOps returns every opcode whose block position is semantically
// irrelevant: value-producing, no memory access, no control flow. These
// are the ops a block may list in any topological order.
func pureScalarOps() []Opcode {
	var ops []Opcode
	for c := Opcode(0); c < MaxOpcode; c++ {
		if c == Custom || c.IsMemory() || c.IsBranch() || !c.HasResult() {
			continue
		}
		ops = append(ops, c)
	}
	return ops
}

// randomPureProgram builds a seeded random program of pure scalar ops:
// operands draw from earlier results, live-in registers and immediates,
// and a sprinkling of ops export live-out registers.
func randomPureProgram(rng *rand.Rand, nBlocks, nOps int) *Program {
	ops := pureScalarOps()
	p := NewProgram("prop")
	for bi := 0; bi < nBlocks; bi++ {
		b := p.AddBlock(string(rune('a'+bi)), float64(rng.Intn(1000)+1))
		for i := 0; i < nOps; i++ {
			code := ops[rng.Intn(len(ops))]
			args := make([]Operand, code.Arity())
			for k := range args {
				switch rng.Intn(3) {
				case 0:
					if len(b.Ops) > 0 {
						args[k] = b.Ops[rng.Intn(len(b.Ops))].Out()
						continue
					}
					fallthrough
				case 1:
					args[k] = b.Arg(Reg(rng.Intn(8) + 1))
				default:
					args[k] = b.Imm(rng.Uint32())
				}
			}
			op := b.Emit(code, args...)
			if rng.Intn(4) == 0 {
				op.Dest = Reg(rng.Intn(8) + 10)
			}
		}
	}
	return p
}

// positional renders p with every op reference spelled as its producer's
// block position and op IDs left out: the reference view of what
// Fingerprint hashes.
func positional(p *Program) string {
	var sb strings.Builder
	for _, b := range p.Blocks {
		pos := make(map[*Op]int, len(b.Ops))
		for i, op := range b.Ops {
			pos[op] = i
		}
		fmt.Fprintf(&sb, "block %s %v %v\n", b.Name, b.Weight, b.Succs)
		for _, op := range b.Ops {
			sb.WriteString(op.Code.String())
			for _, a := range op.Args {
				switch a.Kind {
				case FromOp:
					fmt.Fprintf(&sb, " @%d", pos[a.X])
				case FromReg:
					fmt.Fprintf(&sb, " r%d", a.Reg)
				default:
					fmt.Fprintf(&sb, " #%d", a.Val)
				}
			}
			fmt.Fprintf(&sb, " -> r%d\n", op.Dest)
		}
	}
	return sb.String()
}

// TestFingerprintPermutationSensitivity is the exactness property: for
// seeded random pure-op programs, renumbering op IDs never changes the
// fingerprint, and shuffling each block's op list changes it exactly when
// the positional spelling changes — the order the pipeline reads, not the
// dataflow graph alone, is the cache identity.
func TestFingerprintPermutationSensitivity(t *testing.T) {
	moved := 0
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomPureProgram(rng, rng.Intn(3)+1, rng.Intn(40)+5)
		for round := 0; round < 4; round++ {
			want, text := Fingerprint(p), positional(p)
			for _, b := range p.Blocks {
				ids := rng.Perm(len(b.Ops))
				for i, op := range b.Ops {
					op.ID = ids[i]*7 + rng.Intn(7)
				}
			}
			if got := Fingerprint(p); got != want {
				t.Fatalf("seed %d round %d: renumbering op IDs changed the fingerprint:\n  %s\n  %s",
					seed, round, want, got)
			}
			for _, b := range p.Blocks {
				rng.Shuffle(len(b.Ops), func(i, j int) {
					b.Ops[i], b.Ops[j] = b.Ops[j], b.Ops[i]
				})
			}
			got := Fingerprint(p)
			if sameText, sameHash := positional(p) == text, got == want; sameText != sameHash {
				t.Fatalf("seed %d round %d: shuffle left the positional spelling equal=%v but the fingerprint equal=%v",
					seed, round, sameText, sameHash)
			}
			if got != want {
				moved++
			}
		}
	}
	if moved == 0 {
		t.Fatal("test is vacuous: no shuffle changed any program")
	}
}

// TestFingerprintSensitivity is the non-vacuity half of the property:
// single semantic edits — opcode, immediate, live-out register, block
// weight — must each move the fingerprint.
func TestFingerprintSensitivity(t *testing.T) {
	build := func() *Program {
		return randomPureProgram(rand.New(rand.NewSource(42)), 2, 20)
	}
	base := Fingerprint(build())

	edits := map[string]func(p *Program){
		"opcode": func(p *Program) {
			op := p.Blocks[0].Ops[3]
			if op.Code == Add {
				op.Code = Sub
			} else {
				op.Code = Add
			}
			op.Args = op.Args[:op.Code.Arity()]
			for len(op.Args) < op.Code.Arity() {
				op.Args = append(op.Args, p.Blocks[0].Imm(1))
			}
		},
		"immediate": func(p *Program) {
			for _, op := range p.Blocks[0].Ops {
				for k, a := range op.Args {
					if a.Kind == Imm {
						op.Args[k].Val ^= 1
						return
					}
				}
			}
			panic("no immediate operand in the seeded program")
		},
		"live-out": func(p *Program) { p.Blocks[1].Ops[0].Dest = 99 },
		"weight":   func(p *Program) { p.Blocks[0].Weight++ },
		"succs":    func(p *Program) { p.Blocks[0].Succs = []string{"b"} },
	}
	for label, edit := range edits {
		p := build()
		edit(p)
		if Fingerprint(p) == base {
			t.Errorf("%s edit did not change the fingerprint", label)
		}
	}
}

// TestFingerprintOrdersSideEffects pins the other half of the contract:
// reordering memory operations DOES change the fingerprint even though
// the op multiset is identical.
func TestFingerprintOrdersSideEffects(t *testing.T) {
	build := func(swap bool) *Program {
		p := NewProgram("mem")
		b := p.AddBlock("entry", 1)
		l1 := b.Emit(LoadW, b.Arg(1))
		l2 := b.Emit(LoadW, b.Arg(2))
		if swap {
			b.Ops[0], b.Ops[1] = b.Ops[1], b.Ops[0]
		}
		b.Emit(StoreW, l1.Out(), l2.Out())
		return p
	}
	if Fingerprint(build(false)) == Fingerprint(build(true)) {
		t.Fatal("reordering loads must change the fingerprint")
	}
}
