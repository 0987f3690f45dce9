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
	if s := c.Stats(); s.Candidates != len(cold.Candidates) {
		t.Fatalf("corpus holds %d candidates, cold run recorded %d", s.Candidates, len(cold.Candidates))
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

// TestCorpusKeysOnFanout: the fanout cap changes which directions grow,
// so runs under different caps must not share corpus entries.
func TestCorpusKeysOnFanout(t *testing.T) {
	c, cfg, b := corpusTestSetup(t)
	cfg.Fanout = 2
	Explore(b.Program, cfg)
	if s := c.Stats(); s.Inserts == 0 {
		t.Fatal("fanout 2 bypassed the corpus")
	}
	cfg.Fanout = 4
	if r := Explore(b.Program, cfg); r.Stats.CorpusHits != 0 {
		t.Fatal("fanout 4 hit entries recorded under fanout 2")
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
		cold := Explore(b.Program, Config{Constraints: cfg.Constraints, Lib: cfg.Lib, Fanout: cfg.Fanout})
		sig := cfg.resolve().corpusConfigSig()
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

// TestCorpusConfigSigPinned pins the corpus configuration key: disk
// corpora already written are keyed by these bytes, so a change here turns
// every stored entry cold.
func TestCorpusConfigSigPinned(t *testing.T) {
	lib := hwlib.Default()
	improve := DefaultConfig(lib)
	improve.Strategy = StrategyImprove
	uarch := DefaultConfig(lib)
	uarch.CostModel = CostUarch
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"default", DefaultConfig(lib), "2975373012830abce77d25bcec361b5a8cc68c8c184ae8a03d805435779c9e67"},
		{"improve", improve, "9141288d6b481f02940c23bf52b91ad127a819db457737f29f715aad77254054"},
		{"uarch", uarch, "16d3afaee1f8e4ccea4e1001f47ed10489f2008547a5a46ac3f4e1786365187e"},
		{"unlimited-fanout", Config{Constraints: DefaultConstraints(), Lib: lib}, "de93b64b745a4d9bee22934505cded17fc7bd776434eb6c6756a9696d9bd56b3"},
	} {
		if got := tc.cfg.resolve().corpusConfigSig(); got != tc.want {
			t.Errorf("%s: corpus key %s, want %s", tc.name, got, tc.want)
		}
	}
}
