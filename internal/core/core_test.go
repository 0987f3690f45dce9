package core

import (
	"reflect"
	"testing"

	"repro/internal/cfu"
	"repro/internal/explore"
	"repro/internal/ir"
	"repro/internal/workloads"
)

func TestCustomizeEndToEnd(t *testing.T) {
	b, err := workloads.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Customize(b.Program, Config{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Speedup <= 1 {
		t.Fatalf("speedup = %v", res.Report.Speedup)
	}
	if len(res.MDES.CFUs) == 0 || len(res.Candidates) == 0 {
		t.Fatal("no CFUs generated")
	}
	if res.MDES.Budget != 15 {
		t.Fatalf("default budget = %v, want 15", res.MDES.Budget)
	}
}

func TestGenerateThenCompileSeparately(t *testing.T) {
	gen, err := workloads.ByName("blowfish")
	if err != nil {
		t.Fatal(err)
	}
	m, err := GenerateMDES(gen.Program, Config{Budget: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Cross-compile another encryption app on blowfish's CFUs.
	app, err := workloads.ByName("rijndael")
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := CompileWith(app.Program, m, Config{UseVariants: true, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Speedup < 1 {
		t.Fatalf("cross speedup = %v", rep.Speedup)
	}
}

func TestCustomizeMultiFunction(t *testing.T) {
	// A program whose two hot blocks differ only in add-vs-sub: the
	// multi-function path must produce a verified compile, and the merged
	// unit should appear in the MDES.
	p := ir.NewProgram("mf")
	b1 := p.AddBlock("hot1", 1000)
	x, y, z := b1.Arg(ir.R(1)), b1.Arg(ir.R(2)), b1.Arg(ir.R(3))
	b1.Def(ir.R(4), b1.Add(b1.And(x, y), z))
	b2 := p.AddBlock("hot2", 900)
	u, v, w := b2.Arg(ir.R(1)), b2.Arg(ir.R(2)), b2.Arg(ir.R(3))
	b2.Def(ir.R(4), b2.Sub(b2.And(u, v), w))

	res, err := Customize(p, Config{Budget: 3, MultiFunction: true, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	foundClass := false
	for _, c := range res.MDES.CFUs {
		for _, n := range c.Shape.Nodes {
			if n.Class != 0 {
				foundClass = true
			}
		}
	}
	if !foundClass {
		t.Fatal("no multi-function CFU selected")
	}
	// Both blocks must be served by custom instructions.
	for _, br := range res.Report.Blocks {
		if br.Replacements == 0 {
			t.Fatalf("block %s got no custom instructions", br.Name)
		}
	}
	if res.Report.Speedup <= 1 {
		t.Fatalf("speedup = %v", res.Report.Speedup)
	}
}

func TestCustomizeRejectsInvalidProgram(t *testing.T) {
	p := ir.NewProgram("bad")
	blk := p.AddBlock("b", 1)
	blk.Emit(ir.Add, blk.Arg(ir.R(1))) // bad arity
	if _, err := Customize(p, Config{}); err == nil {
		t.Fatal("expected validation error")
	}
	if _, err := GenerateMDES(p, Config{}); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.Normalize()
	if c.Lib == nil || c.Machine == nil || c.Budget != 15 {
		t.Fatalf("defaults not applied: %+v", c)
	}
	if c.Constraints.MaxInputs != 5 || c.Constraints.MaxOutputs != 3 {
		t.Fatalf("constraint defaults wrong: %+v", c.Constraints)
	}
	if c.SelectMode != cfu.GreedyRatio {
		t.Fatal("default mode must be greedy ratio")
	}
	if c.Strategy != explore.StrategyEnumerate || c.CostModel != explore.CostArea {
		t.Fatalf("strategy/cost model normalized to %q/%q, want enumerate/area", c.Strategy, c.CostModel)
	}
	if again := c.Normalize(); !reflect.DeepEqual(again, c) {
		t.Fatalf("Normalize is not idempotent: %+v != %+v", again, c)
	}
	// Defaults apply field by field: a partial port bound keeps what it
	// sets and takes the paper's value for the rest.
	c = Config{Constraints: explore.Constraints{MaxInputs: 4}}.Normalize()
	if c.Constraints.MaxInputs != 4 || c.Constraints.MaxOutputs != 3 {
		t.Fatalf("partial constraints normalized to %+v, want 4/3", c.Constraints)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("defaults do not validate: %v", err)
	}
	for _, bad := range []Config{{Strategy: "psychic"}, {CostModel: "psychic"}, {SelectMode: cfu.SelectMode(7)}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", bad)
		}
	}
}
