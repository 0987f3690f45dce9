package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// renderResult serializes everything a Customize caller can observe — the
// selected machine description, the recompiled program, and the speedup
// report — so two results can be compared byte for byte.
func renderResult(t *testing.T, r *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.MDES.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// The customized program contains CFU ops with no assembly spelling, so
	// it is compared through its exact content hash, which covers every op
	// (custom included) in order, operand, and live-out.
	buf.WriteString(ir.Fingerprint(r.Program))
	buf.WriteByte('\n')
	rep, err := json.Marshal(r.Report)
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(rep)
	// Candidates are flattened field by field (never JSON-marshaled whole:
	// their Block/DFG references expand shared subexpressions
	// combinatorially). Occurrences pin block identity, member sets, and
	// weights; the scalar fields pin the hardware estimates.
	fmt.Fprintf(&buf, "\ncandidates %d\n", len(r.Candidates))
	for _, c := range r.Candidates {
		fmt.Fprintf(&buf, "cfu %d %s area %b lat %d saved %b value %b sub %v subby %v wild %v occ %d\n",
			c.ID, c.Shape.Signature(), c.Area, c.Latency, c.SavedPerExec, c.Value,
			c.Subsumes, c.SubsumedBy, c.Wildcards, len(c.Occurrences))
		for _, o := range c.Occurrences {
			fmt.Fprintf(&buf, "  occ %s %v %b\n", o.Block.Name, o.Ops, o.Weight)
		}
	}
	return buf.Bytes()
}

// TestCorpusWarmStartByteIdentity is the correctness contract of the
// corpus: for every seed benchmark under both the default and the
// multi-function configuration, a run that populates the corpus and a run
// that replays from it must produce byte-identical results to a corpus-free
// cold run. Only wall-clock time and examined-candidate counts may differ;
// the replay run must additionally prove it actually hit the corpus.
func TestCorpusWarmStartByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full customization three times per benchmark and config")
	}
	// One shared corpus across all benchmarks and configs: overlapping
	// workloads must not contaminate each other (config and block hashes
	// keep the entries apart).
	warm, err := corpus.Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, multi := range []bool{false, true} {
		for _, b := range workloads.All() {
			name := b.Name
			if multi {
				name += "/multifunc"
			}
			t.Run(name, func(t *testing.T) {
				bench, err := workloads.ByName(b.Name)
				if err != nil {
					t.Fatal(err)
				}
				cold, err := Customize(bench.Program, Config{MultiFunction: multi})
				if err != nil {
					t.Fatal(err)
				}
				coldBytes := renderResult(t, cold)

				populate, err := Customize(bench.Program, Config{MultiFunction: multi, Corpus: warm})
				if err != nil {
					t.Fatal(err)
				}
				if got := renderResult(t, populate); !bytes.Equal(got, coldBytes) {
					t.Fatal("corpus-populating run diverged from cold run")
				}

				tel := telemetry.New("test")
				replay, err := Customize(bench.Program, Config{MultiFunction: multi, Corpus: warm, Telemetry: tel})
				if err != nil {
					t.Fatal(err)
				}
				if got := renderResult(t, replay); !bytes.Equal(got, coldBytes) {
					t.Fatal("corpus-replaying run diverged from cold run")
				}
				snap := tel.Snapshot()
				if snap.Counters["explore.corpus.hits"] == 0 {
					t.Fatal("replay run recorded no corpus hits")
				}
				if snap.Counters["explore.corpus.misses"] != 0 {
					t.Fatalf("replay run missed %d blocks that should have been memoized",
						snap.Counters["explore.corpus.misses"])
				}
			})
		}
	}
	if s := warm.Stats(); s.Hits == 0 || s.Inserts == 0 {
		t.Fatalf("corpus never exercised: %+v", s)
	}
}
