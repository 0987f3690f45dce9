package experiment

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/cfu"
	"repro/internal/core"
	"repro/internal/hwlib"
	"repro/internal/ir"
	"repro/internal/workloads"
)

// libWithClass returns the default library with op moved into class,
// through the JSON form users edit for -hwlib.
func libWithClass(t *testing.T, op ir.Opcode, class string) *hwlib.Library {
	t.Helper()
	var buf bytes.Buffer
	if err := hwlib.Default().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Unit    string           `json:"unit"`
		Entries []map[string]any `json:"entries"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, e := range doc.Entries {
		if e["opcode"] == op.String() {
			e["class"] = class
		}
	}
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := hwlib.ReadJSON(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

// TestHarnessMatchesCore pins that the harness is a memo layer over core's
// pipeline rather than a second implementation: its MDES for a benchmark
// at a budget is byte-identical to core.GenerateMDES under the same
// configuration, for every library and selection mode.
func TestHarnessMatchesCore(t *testing.T) {
	cases := []struct {
		name string
		lib  *hwlib.Library
		mode cfu.SelectMode
	}{
		{"default", hwlib.Default(), cfu.GreedyRatio},
		{"dsp16-value", hwlib.DSP16(), cfu.GreedyValue},
		{"xor-addsub", libWithClass(t, ir.Xor, "addsub"), cfu.GreedyRatio},
	}
	names := workloads.Names()
	if testing.Short() {
		names = []string{"rijndael", "sha", "url"}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := NewHarness()
			h.Lib, h.SelectMode = c.lib, c.mode
			for _, name := range names {
				b, err := workloads.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				for _, budget := range []float64{1, 4, 15} {
					got, err := h.MDESAt(name, budget)
					if err != nil {
						t.Fatal(err)
					}
					want, err := core.GenerateMDES(b.Program, core.Config{Lib: c.lib, SelectMode: c.mode, Budget: budget})
					if err != nil {
						t.Fatal(err)
					}
					var gb, wb bytes.Buffer
					if err := got.WriteJSON(&gb); err != nil {
						t.Fatal(err)
					}
					if err := want.WriteJSON(&wb); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
						t.Errorf("%s at budget %g: harness MDES differs from core.GenerateMDES", name, budget)
					}
				}
			}
		})
	}
}
