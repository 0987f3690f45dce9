package experiment

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cfu"
	"repro/internal/core"
	"repro/internal/hwlib"
	"repro/internal/ir"
	"repro/internal/mdes"
	"repro/internal/telemetry"
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
			h := sharedHarness()
			if c.name != "default" {
				h = NewHarness()
				h.Lib, h.SelectMode = c.lib, c.mode
			}
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

// TestSweepCompilesEachSelectionOnce checks the compile memo against an
// uncached oracle. A native sweep compiles each distinct (application,
// ordered CFU list) once, however many budgets select that list, and every
// point equals a fresh core.Compile of that budget's MDES. The MDES's
// truncation tag and the compiler knobs are part of the memo key.
func TestSweepCompilesEachSelectionOnce(t *testing.T) {
	names := workloads.Names()
	if testing.Short() {
		names = []string{"rijndael", "sha", "url"}
	}
	budgets := Budgets1to15()
	tel := telemetry.New("test")
	h := NewHarness()
	h.Telemetry = tel
	h.Parallelism = 2
	pairs := make([]sweepPair, len(names))
	for i, name := range names {
		pairs[i] = sweepPair{name, name}
	}
	res, err := h.sweepAll(pairs, budgets)
	if err != nil {
		t.Fatal(err)
	}
	counters := tel.Snapshot().Counters
	miss, hit := counters["memo.compile.miss"], counters["memo.compile.hit"]

	cfg := core.Config{Lib: h.Lib, Machine: h.Machine}.Normalize()
	distinct := make(map[string]bool)
	for k, name := range names {
		b, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for bi, budget := range budgets {
			m, err := h.MDESAt(name, budget)
			if err != nil {
				t.Fatal(err)
			}
			sel := []string{name}
			for _, spec := range m.CFUs {
				sel = append(sel, spec.Name)
			}
			distinct[strings.Join(sel, "|")] = true
			_, want, err := core.Compile(b.Program, m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := res[k].Points[bi]; got.Speedup != want.Speedup || got.Truncated != want.Truncated {
				t.Errorf("%s at budget %g: memoized point %+v, fresh compile speedup %v truncated %v",
					name, budget, got, want.Speedup, want.Truncated)
			}
		}
	}
	if total := int64(len(names) * len(budgets)); miss != int64(len(distinct)) || hit != total-miss {
		t.Errorf("memo.compile miss/hit = %d/%d, want %d/%d (one compile per distinct selection)",
			miss, hit, len(distinct), total-int64(len(distinct)))
	}

	// The truncation tag is copied into the report, so an MDES that differs
	// from a memoized one only in Truncated needs its own compile.
	name := names[0]
	m, err := h.MDESAt(name, 15)
	if err != nil {
		t.Fatal(err)
	}
	tm := *m
	tm.Truncated = true
	cell := &memoCell[*mdes.MDES]{val: &tm}
	cell.once.Do(func() {})
	h.mdess[mdesKey{name, -15}] = cell
	rep, err := h.CompileOn(name, name, -15)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Truncated {
		t.Error("a truncated MDES reused the untruncated MDES's report")
	}
	if got := tel.Snapshot().Counters["memo.compile.miss"]; got != miss+1 {
		t.Errorf("truncated MDES: memo.compile.miss = %d, want %d", got, miss+1)
	}

	// The extension study varies the compiler knobs: every (application,
	// CFU source) pair compiles once per matching mode, and a repeat of the
	// study compiles nothing.
	tel = telemetry.New("test")
	h = NewHarness()
	h.Telemetry = tel
	rows, err := h.ExtensionStudy(workloads.DomainVideo, 15)
	if err != nil {
		t.Fatal(err)
	}
	counters = tel.Snapshot().Counters
	if miss, hit := counters["memo.compile.miss"], counters["memo.compile.hit"]; miss != int64(4*len(rows)) || hit != 0 {
		t.Fatalf("memo.compile miss/hit = %d/%d over %d pairs, want four misses per pair and no hits",
			miss, hit, len(rows))
	}
	again, err := h.ExtensionStudy(workloads.DomainVideo, 15)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, again) {
		t.Error("repeating the extension study changed its results")
	}
	counters = tel.Snapshot().Counters
	if miss, hit := counters["memo.compile.miss"], counters["memo.compile.hit"]; miss != int64(4*len(rows)) || hit != int64(4*len(rows)) {
		t.Errorf("after a repeat, memo.compile miss/hit = %d/%d, want %d/%d",
			miss, hit, 4*len(rows), 4*len(rows))
	}
}

// TestSweepSchedulesEachBlockOnce checks the harness's schedule memo: a
// native sweep schedules each distinct (block, machine, register count)
// once, at every -j. The expected counts come from compiling each distinct
// selection again without a memo: every compile schedules each block of
// the original and of the customized program, and only a block content not
// seen before is a miss.
func TestSweepSchedulesEachBlockOnce(t *testing.T) {
	names := workloads.Names()
	if testing.Short() {
		names = []string{"rijndael", "sha", "url"}
	}
	budgets := Budgets1to15()
	pairs := make([]sweepPair, len(names))
	for i, name := range names {
		pairs[i] = sweepPair{name, name}
	}
	var want [2]int64
	for _, j := range []int{1, 4} {
		tel := telemetry.New("test")
		h := NewHarness()
		h.Telemetry = tel
		h.Parallelism = j
		if _, err := h.sweepAll(pairs, budgets); err != nil {
			t.Fatal(err)
		}
		counters := tel.Snapshot().Counters
		got := [2]int64{counters["memo.schedule.miss"], counters["memo.schedule.hit"]}
		if j == 1 {
			want = sweepSchedules(t, h, names, budgets)
		}
		if got != want {
			t.Errorf("-j %d: memo.schedule miss/hit = %d/%d, want %d/%d", j, got[0], got[1], want[0], want[1])
		}
	}
	// The figures the memo was sized from: 886 schedules of 224 distinct
	// inputs in the full native sweep.
	if !testing.Short() && want != [2]int64{224, 662} {
		t.Errorf("full native sweep: %d distinct of %d schedules, want 224 of 886", want[0], want[0]+want[1])
	}
}

// sweepSchedules counts the schedules a sweep of names over budgets on h
// asks its memo for, and how many distinct inputs they have, by compiling
// each distinct selection once more without a memo.
func sweepSchedules(t *testing.T, h *Harness, names []string, budgets []float64) (missHit [2]int64) {
	t.Helper()
	cfg := core.Config{Lib: h.Lib, Machine: h.Machine}.Normalize()
	compiled := make(map[compileKey]bool)
	distinct := make(map[string]bool)
	calls := 0
	for _, name := range names {
		b, err := h.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range budgets {
			m, err := h.MDESAt(name, budget)
			if err != nil {
				t.Fatal(err)
			}
			key := newCompileKey(name, m, h.config())
			if compiled[key] {
				continue
			}
			compiled[key] = true
			out, _, err := core.Compile(b.Program, m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := range out.Blocks {
				distinct[ir.BlockHash(b.Program.Blocks[i])] = true
				distinct[ir.BlockHash(out.Blocks[i])] = true
				calls += 2
			}
		}
	}
	return [2]int64{int64(len(distinct)), int64(calls - len(distinct))}
}
