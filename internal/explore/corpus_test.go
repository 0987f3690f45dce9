package explore

import (
	"context"
	"slices"
	"testing"

	"repro/internal/corpus"
	"repro/internal/hwlib"
	"repro/internal/ir"
	"repro/internal/workloads"
)

func corpusTestSetup(t *testing.T) (*corpus.Corpus, Config, *workloads.Benchmark) {
	t.Helper()
	c, err := corpus.Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := workloads.ByName("rawdaudio")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(hwlib.Default())
	cfg.Corpus = c
	return c, cfg, b
}

func TestCorpusWarmHitsEveryBlock(t *testing.T) {
	c, cfg, b := corpusTestSetup(t)
	cold := Explore(b.Program, cfg)
	if cold.Stats.CorpusMisses == 0 || cold.Stats.CorpusHits != 0 {
		t.Fatalf("populating run: hits=%d misses=%d", cold.Stats.CorpusHits, cold.Stats.CorpusMisses)
	}
	warm := Explore(b.Program, cfg)
	if warm.Stats.CorpusMisses != 0 || warm.Stats.CorpusHits == 0 {
		t.Fatalf("warm run: hits=%d misses=%d", warm.Stats.CorpusHits, warm.Stats.CorpusMisses)
	}
	if len(warm.Candidates) != len(cold.Candidates) {
		t.Fatalf("warm recorded %d candidates, cold %d", len(warm.Candidates), len(cold.Candidates))
	}
	for i := range warm.Candidates {
		w, cd := &warm.Candidates[i], &cold.Candidates[i]
		if w.Block != cd.Block || !slices.Equal(w.Ops, cd.Ops) ||
			w.Area != cd.Area || w.Latency != cd.Latency ||
			w.Inputs != cd.Inputs || w.Outputs != cd.Outputs {
			t.Fatalf("candidate %d differs between warm and cold", i)
		}
	}
	if s := c.Stats(); s.ShapeClasses == 0 {
		t.Fatal("inserted entries carry no shape classes")
	}
}

// TestCorpusBypassedUnderMaxCandidates: the cold path can overshoot the
// candidate cap mid-wave, a truncation point no per-block memo can
// reproduce, so a MaxCandidates budget must bypass the corpus entirely.
func TestCorpusBypassedUnderMaxCandidates(t *testing.T) {
	c, cfg, b := corpusTestSetup(t)
	cfg.MaxCandidates = 5
	res := Explore(b.Program, cfg)
	if !res.Stats.Truncated {
		t.Fatal("cap of 5 did not truncate")
	}
	if res.Stats.CorpusHits != 0 || res.Stats.CorpusMisses != 0 {
		t.Fatal("corpus consulted under a MaxCandidates budget")
	}
	if s := c.Stats(); s.Inserts != 0 || s.Hits != 0 || s.Misses != 0 {
		t.Fatalf("corpus touched under a MaxCandidates budget: %+v", s)
	}
}

// TestCorpusBypassedForUndescribedFanout: a custom fanout policy is a func
// and cannot be hashed; without a FanoutDesc the run must not share
// entries with any other policy.
func TestCorpusBypassedForUndescribedFanout(t *testing.T) {
	c, cfg, b := corpusTestSetup(t)
	cfg.Fanout = DepthDecayFanout(6)
	cfg.FanoutDesc = ""
	Explore(b.Program, cfg)
	if s := c.Stats(); s.Inserts != 0 {
		t.Fatalf("undescribed custom fanout inserted %d corpus entries", s.Inserts)
	}
	// Described policies are keyable — and distinct descriptors must not
	// share entries with the default.
	cfg.FanoutDesc = "depthdecay:6"
	Explore(b.Program, cfg)
	s := c.Stats()
	if s.Inserts == 0 {
		t.Fatal("described custom fanout still bypassed the corpus")
	}
	cfg2 := DefaultConfig(hwlib.Default())
	cfg2.Corpus = c
	if r := Explore(b.Program, cfg2); r.Stats.CorpusHits != 0 {
		t.Fatal("default fanout hit entries recorded under depthdecay:6")
	}
}

// TestCorpusNoInsertWhenTruncated: a run cut off by its context must not
// memoize the incomplete block it stopped in.
func TestCorpusNoInsertWhenTruncated(t *testing.T) {
	c, cfg, b := corpusTestSetup(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg.Ctx = ctx
	res := Explore(b.Program, cfg)
	if !res.Stats.Truncated {
		t.Fatal("canceled context did not truncate")
	}
	if s := c.Stats(); s.Inserts != 0 {
		t.Fatalf("truncated run memoized %d incomplete blocks", s.Inserts)
	}
}

// TestCorpusReplayRejectsForeignEntry: an entry whose member indices do
// not fit the block, or are not strictly ascending as candidate Ops must
// be (hash collision, corrupt disk record that passed framing), must be
// rejected at replay, falling back to the cold path.
func TestCorpusReplayRejectsForeignEntry(t *testing.T) {
	for _, members := range [][]int{{1 << 20}, {1, 0}, {0, 0}} {
		c, cfg, b := corpusTestSetup(t)
		cold := Explore(b.Program, Config{Constraints: cfg.Constraints, Lib: cfg.Lib, Fanout: cfg.Fanout, FanoutDesc: cfg.FanoutDesc})
		sig := cfg.corpusConfigSig()
		blk := b.Program.Blocks[0]
		// Plant a poisoned entry under the exact key the explorer will derive.
		c.Insert(corpus.Key{Block: ir.BlockHash(blk), Config: sig}, &corpus.Entry{
			Candidates: []corpus.Candidate{{Members: members, Inputs: 1, Outputs: 1}},
		})
		res := Explore(b.Program, cfg)
		if len(res.Candidates) != len(cold.Candidates) {
			t.Fatalf("members %v: poisoned entry leaked: %d candidates, want %d", members, len(res.Candidates), len(cold.Candidates))
		}
		if res.Stats.CorpusHits != 0 {
			t.Fatalf("members %v: foreign entry counted as a hit", members)
		}
	}
}
