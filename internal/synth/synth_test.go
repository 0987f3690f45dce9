package synth

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/ir"
)

func render(t *testing.T, p *ir.Program) string {
	t.Helper()
	var sb strings.Builder
	if err := asm.Write(&sb, p); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestDeterminism(t *testing.T) {
	spec, err := ParseSpec("seed=42:blocks=8:ops=256:mul=20")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if ta, tb := render(t, a), render(t, b); ta != tb {
		t.Fatal("same spec, different asm text")
	}
	spec.Seed = 43
	c, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if render(t, a) == render(t, c) {
		t.Fatal("different seed, identical asm text")
	}
}

func TestGeneratedProgramsValidateAcrossScales(t *testing.T) {
	for _, text := range []string{
		"",
		"blocks=1:ops=1",
		"seed=9:blocks=2:ops=700",               // ~10x the hand-lowered kernels
		"seed=9:blocks=32:ops=512",              // ~100x
		"blocks=4:ops=128:fanin=1",              // deepest chains
		"blocks=4:ops=128:fanin=4096",           // widest dataflow
		"alu=0:mul=0:shift=0:cmp=0:sel=1:mem=1", // degenerate mixes
		"livein=16:liveout=16",
		"liveout=0",
	} {
		spec, err := ParseSpec(text)
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		p, err := Generate(spec)
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		if err := ir.Validate(p); err != nil {
			t.Errorf("%q: %v", text, err)
		}
		if len(p.Blocks) != spec.Blocks {
			t.Errorf("%q: %d blocks, want %d", text, len(p.Blocks), spec.Blocks)
		}
		for _, b := range p.Blocks {
			if len(b.Ops) < spec.Ops {
				t.Errorf("%q: block %s has %d ops, want >= %d", text, b.Name, len(b.Ops), spec.Ops)
			}
		}
	}
}

func TestAsmRoundTrip(t *testing.T) {
	p, err := Generate(DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	text := render(t, p)
	q, err := asm.Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if render(t, q) != text {
		t.Fatal("asm round trip not stable")
	}
}

func TestStressSpecScale(t *testing.T) {
	p, err := Generate(StressSpec())
	if err != nil {
		t.Fatal(err)
	}
	// The stress preset must live in the 10-100x band above the largest
	// hand-lowered benchmark block (blowfish, ~414 ops program-wide).
	if n := p.NumOps(); n < 2000 || n > 5000 {
		t.Fatalf("stress program has %d ops, want 2000..5000 (%s)", n, Sizes(p))
	}
	if p.Blocks[0].Weight <= p.Blocks[len(p.Blocks)-1].Weight {
		t.Fatal("first block should carry the highest profile weight")
	}
}

func TestSpecStringRoundTrip(t *testing.T) {
	spec, err := ParseSpec("name=big:seed=11:blocks=3:ops=99:weight=5e4")
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParseSpec(spec.String())
	if err != nil {
		t.Fatalf("re-parsing %q: %v", spec.String(), err)
	}
	if again != spec {
		t.Fatalf("round trip changed the spec:\n  %+v\n  %+v", spec, again)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, text := range []string{
		"bogus=1",
		"blocks",
		"blocks=abc",
		"blocks=0",
		"blocks=2000",
		"ops=999999",
		"blocks=1024:ops=16384", // product over MaxTotalOps
		"fanin=0",
		"livein=0",
		"livein=99",
		"liveout=99",
		"weight=0",
		"weight=nan",
		"alu=0:mul=0:shift=0:cmp=0:sel=0:mem=0",
		"name=Bad_Name",
		"name=",
	} {
		if _, err := ParseSpec(text); err == nil {
			t.Errorf("ParseSpec(%q) accepted", text)
		}
	}
}
