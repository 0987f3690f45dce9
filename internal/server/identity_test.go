package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/synth"
	"repro/internal/workloads"
)

// identityEndpoints are the requests every spelling is sent as. The first
// one explores on a cold corpus; the others replay the corpus it filled.
var identityEndpoints = []struct {
	kind   string
	budget int
}{
	{"customize", 15},
	{"customize", 4},
	{"hdl", 15},
}

// spelling is one way of writing an input program on the wire.
type spelling struct {
	name string
	req  Request
	// reordered marks a spelling whose op order differs from the input's.
	reordered bool
}

// body returns the request's JSON body as an identity endpoint sends it.
func (s spelling) body(t *testing.T, budget int) []byte {
	t.Helper()
	b, err := json.Marshal(map[string]any{
		"benchmark": s.req.Benchmark, "program": s.req.Program, "budget": budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// keys returns the cache key of the request at every identity endpoint,
// decoded and resolved the way the handler does.
func (s spelling) keys(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, e := range identityEndpoints {
		var req Request
		if err := json.Unmarshal(s.body(t, e.budget), &req); err != nil {
			t.Fatal(err)
		}
		req = req.Normalized(0)
		p, _, err := Resolve(req)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if err := req.Validate(); err != nil {
			t.Fatal(err)
		}
		out = append(out, req.cacheKey(e.kind, p))
	}
	return out
}

// serve sends the request for every identity endpoint through a fresh
// server on store and returns the response bodies.
func (s spelling) serve(t *testing.T, store *corpus.Corpus) [][]byte {
	t.Helper()
	srv := New(Config{Corpus: store})
	var out [][]byte
	for _, e := range identityEndpoints {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/"+e.kind, bytes.NewReader(s.body(t, e.budget))))
		if rec.Code != http.StatusOK || rec.Header().Get("X-Iscd-Cache") != "miss" {
			t.Fatalf("%s /v1/%s budget %d: status %d, cache %q: %s",
				s.name, e.kind, e.budget, rec.Code, rec.Header().Get("X-Iscd-Cache"), rec.Body.Bytes())
		}
		out = append(out, rec.Body.Bytes())
	}
	return out
}

func asmText(t *testing.T, p *ir.Program) string {
	t.Helper()
	var sb strings.Builder
	if err := asm.Write(&sb, p); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func parseText(t *testing.T, text string) *ir.Program {
	t.Helper()
	p, err := asm.Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// renumbered returns text with every op ID changed and the op order kept.
func renumbered(t *testing.T, text string) string {
	t.Helper()
	p := parseText(t, text)
	for _, b := range p.Blocks {
		for i, op := range b.Ops {
			op.ID = 1000 + 3*(len(b.Ops)-i)
		}
	}
	return asmText(t, p)
}

// shuffled returns text with each block's ops in a random topological
// order: every op still follows its producers, memory and other
// result-less ops keep their relative order, and no op crosses a branch.
// The program computes what the input computes; only its op order moves.
func shuffled(t *testing.T, text string, rng *rand.Rand) string {
	t.Helper()
	p := parseText(t, text)
	for _, b := range p.Blocks {
		pos := make(map[*ir.Op]int, len(b.Ops))
		for i, op := range b.Ops {
			pos[op] = i
		}
		preds := make([]int, len(b.Ops))
		succs := make([][]int, len(b.Ops))
		edge := func(from, to int) {
			succs[from] = append(succs[from], to)
			preds[to]++
		}
		lastOrdered, lastBranch := -1, -1
		for i, op := range b.Ops {
			for _, a := range op.Args {
				if a.Kind == ir.FromOp {
					edge(pos[a.X], i)
				}
			}
			if !op.Code.HasResult() || op.Code.IsMemory() {
				if lastOrdered >= 0 {
					edge(lastOrdered, i)
				}
				lastOrdered = i
			}
			switch {
			case op.Code.IsBranch():
				for j := lastBranch + 1; j < i; j++ {
					edge(j, i)
				}
				lastBranch = i
			case lastBranch >= 0:
				edge(lastBranch, i)
			}
		}
		var ready []int
		for i := range b.Ops {
			if preds[i] == 0 {
				ready = append(ready, i)
			}
		}
		order := make([]*ir.Op, 0, len(b.Ops))
		for len(ready) > 0 {
			k := rng.Intn(len(ready))
			i := ready[k]
			ready = append(ready[:k], ready[k+1:]...)
			order = append(order, b.Ops[i])
			for _, j := range succs[i] {
				if preds[j]--; preds[j] == 0 {
					ready = append(ready, j)
				}
			}
		}
		if len(order) != len(b.Ops) {
			t.Fatalf("block %s: dependency cycle in the shuffle", b.Name)
		}
		b.Ops = order
	}
	return asmText(t, p)
}

// randomPureProgram builds a seeded random program of pure ALU ops whose
// operands draw from earlier results, live-in registers and immediates.
func randomPureProgram(t *testing.T, seed int64) *ir.Program {
	t.Helper()
	codes := []ir.Opcode{ir.Add, ir.Sub, ir.And, ir.Or, ir.Xor, ir.Shl, ir.Shr, ir.Mul}
	rng := rand.New(rand.NewSource(seed))
	p := ir.NewProgram(fmt.Sprintf("pure%d", seed))
	for bi := 0; bi < 2; bi++ {
		b := p.AddBlock(fmt.Sprintf("b%d", bi), float64(1000*(rng.Intn(9)+1)))
		for i := 0; i < 24; i++ {
			args := make([]ir.Operand, 2)
			for k := range args {
				switch n := len(b.Ops); {
				case n > 0 && rng.Intn(3) > 0:
					args[k] = b.Ops[n-1-rng.Intn(min(n, 6))].Out()
				case rng.Intn(2) == 0:
					args[k] = b.Arg(ir.R(rng.Intn(4) + 1))
				default:
					args[k] = b.Imm(uint32(rng.Intn(31) + 1))
				}
			}
			op := b.Emit(codes[rng.Intn(len(codes))], args...)
			if i%6 == 5 {
				op.Dest = ir.R(10 + i/6)
			}
		}
	}
	if err := ir.Validate(p); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestEqualKeyEqualBytes checks the result cache's soundness promise, equal
// cache key ⇒ byte-identical response, metamorphically over every seed
// benchmark, seeded synthetic programs and seeded random pure-op programs.
// Each input is spelled four ways — its benchmark name (seed benchmarks
// only), its iscasm text, that text with every op ID renumbered, and a
// random topological shuffle of its pure ops — and every spelling is sent
// through the real handler of a fresh server. Respellings that keep the op
// order must share the reference spelling's key, and then their bodies must
// equal the reference's bytes. The pipeline reads op order, so the shuffle
// must get a key of its own; should it share one, its bytes are held to the
// same standard.
//
// The reference spelling runs on a cold corpus and every other spelling on
// a fresh server reading the corpus the reference filled, so warm replay
// across spellings is checked too. The reference rotates over the
// order-keeping spellings from input to input, so each of them runs cold
// somewhere.
func TestEqualKeyEqualBytes(t *testing.T) {
	type input struct {
		name, bench string
		prog        *ir.Program
	}
	var inputs []input
	for _, b := range workloads.All() {
		inputs = append(inputs, input{b.Name, b.Name, b.Program})
	}
	for seed := 1; seed <= 3; seed++ {
		spec, err := synth.ParseSpec(fmt.Sprintf("seed=%d:blocks=3:ops=48", seed))
		if err != nil {
			t.Fatal(err)
		}
		p, err := synth.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{name: fmt.Sprintf("synth%d", seed), prog: p})
	}
	for seed := int64(1); seed <= 3; seed++ {
		inputs = append(inputs, input{name: fmt.Sprintf("pure%d", seed), prog: randomPureProgram(t, seed)})
	}

	for i, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			t.Parallel()
			text := asmText(t, in.prog)
			var keep []spelling
			if in.bench != "" {
				keep = append(keep, spelling{name: "name", req: Request{Benchmark: in.bench}})
			}
			keep = append(keep,
				spelling{name: "text", req: Request{Program: text}},
				spelling{name: "renumbered", req: Request{Program: renumbered(t, text)}})
			rng := rand.New(rand.NewSource(int64(i)))
			shuf := shuffled(t, text, rng)
			for try := 0; shuf == text; try++ {
				if try == 10 {
					t.Fatal("test is vacuous: no shuffle changed the op order")
				}
				shuf = shuffled(t, text, rng)
			}
			ref := keep[i%len(keep)]
			rows := append(append([]spelling{}, keep[:i%len(keep)]...), keep[i%len(keep)+1:]...)
			rows = append(rows, spelling{name: "shuffled", req: Request{Program: shuf}, reordered: true})

			store, err := corpus.Open("", 0)
			if err != nil {
				t.Fatal(err)
			}
			want, refKeys := ref.serve(t, store), ref.keys(t)
			for _, row := range rows {
				t.Run(row.name, func(t *testing.T) {
					rowKeys := row.keys(t)
					shared := false
					for k, e := range identityEndpoints {
						switch {
						case rowKeys[k] == refKeys[k]:
							shared = true
						case !row.reordered:
							t.Errorf("/v1/%s budget %d: %s and %s spell one program in one op order but got different keys",
								e.kind, e.budget, row.name, ref.name)
						}
					}
					if row.reordered && shared {
						t.Errorf("the reordered spelling shares a cache key with %s", ref.name)
					}
					if !shared {
						return
					}
					got := row.serve(t, store)
					for k, e := range identityEndpoints {
						if rowKeys[k] == refKeys[k] && !bytes.Equal(got[k], want[k]) {
							t.Errorf("/v1/%s budget %d: %s and %s share a cache key but their response bytes differ",
								e.kind, e.budget, row.name, ref.name)
						}
					}
				})
			}
		})
	}
}
