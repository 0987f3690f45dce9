package explore

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hwlib"
	"repro/internal/ir"
	"repro/internal/synth"
	"repro/internal/workloads"
)

// candidateDigest hashes everything exploration hands downstream and
// reports about its effort: every candidate's block, ops, area and
// latency bits and ports, in order, then Examined, PrunedDirections,
// Recorded, BySize and the truncation verdict.
func candidateDigest(res *Result) string {
	buf := make([]byte, 0, 1<<16)
	num := func(v int) { buf = binary.AppendVarint(buf, int64(v)) }
	str := func(s string) { num(len(s)); buf = append(buf, s...) }
	bits := func(f float64) { buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f)) }

	num(len(res.Candidates))
	for _, c := range res.Candidates {
		str(c.Block.Name)
		num(len(c.Ops))
		for _, o := range c.Ops {
			num(o)
		}
		bits(c.Area)
		bits(c.Latency)
		num(c.Inputs)
		num(c.Outputs)
	}
	st := res.Stats
	num(st.Examined)
	num(st.PrunedDirections)
	num(st.Recorded)
	sizes := make([]int, 0, len(st.BySize))
	for s := range st.BySize {
		sizes = append(sizes, s)
	}
	slices.Sort(sizes)
	for _, s := range sizes {
		num(s)
		num(st.BySize[s])
	}
	if st.Truncated {
		num(1)
	} else {
		num(0)
	}
	str(st.TruncatedBy)
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:8])
}

// pollCtx is a context that reports itself canceled from its n-th Done
// call on. The explorer polls Done once every budgetCheckEvery budget
// checks, so a pollCtx cancels a run at a fixed point of the search, not
// at a wall-clock moment.
type pollCtx struct {
	context.Context
	left atomic.Int64
}

var closedDone = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

func newPollCtx(n int) *pollCtx {
	c := &pollCtx{Context: context.Background()}
	c.left.Store(int64(n))
	return c
}

func (c *pollCtx) Done() <-chan struct{} {
	if c.left.Add(-1) < 0 {
		return closedDone
	}
	return nil
}

func (c *pollCtx) Err() error {
	if c.left.Load() < 0 {
		return context.Canceled
	}
	return nil
}

func (c *pollCtx) Deadline() (time.Time, bool) { return time.Time{}, false }

// pinVariants are the search configurations TestCandidateStreamPin
// covers. Every row caps the block's search with MaxExamined, so the
// whole table stays a few seconds of work, and several rows stop at that
// valve.
var pinVariants = []struct {
	name string
	set  func(*Config)
}{
	{"default", func(c *Config) { c.MaxExamined = 30000 }},
	{"uarch", func(c *Config) { c.CostModel, c.MaxExamined = CostUarch, 8000 }},
	{"naive", func(c *Config) { c.Naive, c.MaxExamined = true, 3000 }},
	{"fanout0", func(c *Config) { c.Fanout, c.MaxExamined = 0, 5000 }},
	{"maxcand300", func(c *Config) { c.MaxCandidates, c.MaxExamined = 300, 8000 }},
	{"canceled", func(c *Config) { c.Ctx, c.MaxExamined = newPollCtx(40), 8000 }},
	{"improve", func(c *Config) { c.Strategy, c.MaxExamined = StrategyImprove, 8000 }},
	// A negative overshoot stops expanding subgraphs the port filter
	// still records.
	{"overshoot-1", func(c *Config) { c.OvershootIO, c.MaxExamined = -1, 8000 }},
}

// candidateStreamPins are candidateDigest of each program under each
// variant, recorded before the enumerative search stopped building
// subgraphs past the port overshoot, stored prices in its visited set and
// priced each admitted subgraph once. Those changes are pure performance
// work: any drift here is a behaviour change.
var candidateStreamPins = map[string]string{
	"blowfish/default":     "250c9dfbb87bce53",
	"rijndael/default":     "b3802437627683dc",
	"sha/default":          "372d24cac1dc3335",
	"crc/default":          "7111c35f1c17c273",
	"ipchains/default":     "219f74aebc65c7d3",
	"url/default":          "1cac008e7630ee88",
	"gsmdecode/default":    "d30e6eab743dcb76",
	"gsmencode/default":    "ba7e04660453260f",
	"rawcaudio/default":    "1c4bf403a13a6b19",
	"rawdaudio/default":    "7d4ad232e1032651",
	"cjpeg/default":        "f6b16800416069fa",
	"djpeg/default":        "6872d4985da2091f",
	"mpeg2dec/default":     "d8f90d6bf45cdc4d",
	"mpeg2enc/default":     "8ee2eeb538c08820",
	"edgedetect/default":   "bca020bfd0eeea1f",
	"h264deblock/default":  "ffdb5751986d279e",
	"synth-stress/default": "b560233946520c45",

	"blowfish/uarch":     "4bdf906df9b353f6",
	"rijndael/uarch":     "56af91add30078bb",
	"sha/uarch":          "10bc0c844e5e5f06",
	"crc/uarch":          "8fefc20a1186e0ae",
	"ipchains/uarch":     "a9c319726eefa78d",
	"url/uarch":          "a26245842a7791e2",
	"gsmdecode/uarch":    "7910dfdf8ecf75b7",
	"gsmencode/uarch":    "bcfc83d652982a44",
	"rawcaudio/uarch":    "a2117ae6616243bf",
	"rawdaudio/uarch":    "cfb6b4bf1fb18fd9",
	"cjpeg/uarch":        "e7832ec5a657d26a",
	"djpeg/uarch":        "7127c23df5f886b0",
	"mpeg2dec/uarch":     "8f610df134fcf53b",
	"mpeg2enc/uarch":     "da2aeb7111c12434",
	"edgedetect/uarch":   "1387c585183ea7bb",
	"h264deblock/uarch":  "d6473abb912fdd7d",
	"synth-stress/uarch": "6f508ef9383be0c8",

	"blowfish/naive":     "d6bc34e820b2e5e2",
	"rijndael/naive":     "c3bd0f66f9eb83d7",
	"sha/naive":          "fde529f6dcac887e",
	"crc/naive":          "57397fd0c5714f96",
	"ipchains/naive":     "382b17c75cf89b51",
	"url/naive":          "35505d38c74afc35",
	"gsmdecode/naive":    "0e828252171400fe",
	"gsmencode/naive":    "fc197c27894f0208",
	"rawcaudio/naive":    "07a9a357f44cb3b5",
	"rawdaudio/naive":    "55c4731f75f01869",
	"cjpeg/naive":        "f73c4c6e966de61c",
	"djpeg/naive":        "921ff2d76dd2c351",
	"mpeg2dec/naive":     "21e27b8d30055a86",
	"mpeg2enc/naive":     "18254b283e4317f7",
	"edgedetect/naive":   "7a6584567e33b765",
	"h264deblock/naive":  "ff0e55cd2d2cce45",
	"synth-stress/naive": "7912a8a820050b5a",

	"blowfish/fanout0":     "8a8a9d645e94a2ea",
	"rijndael/fanout0":     "8215dc52a8736a9c",
	"sha/fanout0":          "96ae1f4d2dcc9f87",
	"crc/fanout0":          "4ff249d27f18931f",
	"ipchains/fanout0":     "148d602f1ee60a26",
	"url/fanout0":          "2c22b3e6c4bd91fc",
	"gsmdecode/fanout0":    "9050f8f510185d9a",
	"gsmencode/fanout0":    "9841ff0c18295bdd",
	"rawcaudio/fanout0":    "66b219f5edaf3a78",
	"rawdaudio/fanout0":    "aad0891ddd995332",
	"cjpeg/fanout0":        "fc2441cc17607754",
	"djpeg/fanout0":        "8ade078405347686",
	"mpeg2dec/fanout0":     "7821dc1396853744",
	"mpeg2enc/fanout0":     "e4f235f235ef1ecb",
	"edgedetect/fanout0":   "d2d1cdfbe31d6f62",
	"h264deblock/fanout0":  "1921f1f267c28cd5",
	"synth-stress/fanout0": "00f5e67c4fd343ce",

	"blowfish/maxcand300":     "d45adda4800d9d6c",
	"rijndael/maxcand300":     "c60ff9498514f92c",
	"sha/maxcand300":          "e73b30907265358f",
	"crc/maxcand300":          "b433ad2b3943a9a2",
	"ipchains/maxcand300":     "219f74aebc65c7d3",
	"url/maxcand300":          "8ffebf1160ae3ebe",
	"gsmdecode/maxcand300":    "007bd1eca2e3a1ff",
	"gsmencode/maxcand300":    "1fdfa9597700b8c6",
	"rawcaudio/maxcand300":    "f61fa4203fa8457d",
	"rawdaudio/maxcand300":    "2ad380bd175af91e",
	"cjpeg/maxcand300":        "bd13b62a13e8b85a",
	"djpeg/maxcand300":        "eb78d5f85ecfab13",
	"mpeg2dec/maxcand300":     "d8f90d6bf45cdc4d",
	"mpeg2enc/maxcand300":     "88dc05a74077ebae",
	"edgedetect/maxcand300":   "9b74d686fd9a010a",
	"h264deblock/maxcand300":  "0b0a2befcf90cf1e",
	"synth-stress/maxcand300": "70114ea93c65b258",

	"blowfish/canceled":     "9f23137bef9eefef",
	"rijndael/canceled":     "b3802437627683dc",
	"sha/canceled":          "4b45e794ba86f79f",
	"crc/canceled":          "7d953359fc1f3e3a",
	"ipchains/canceled":     "219f74aebc65c7d3",
	"url/canceled":          "1cac008e7630ee88",
	"gsmdecode/canceled":    "2a8f4415424a608d",
	"gsmencode/canceled":    "ba7e04660453260f",
	"rawcaudio/canceled":    "7d9a44979dc17b82",
	"rawdaudio/canceled":    "83b6431424701587",
	"cjpeg/canceled":        "8e4e4b26f8e91efa",
	"djpeg/canceled":        "11e86998dc1bc3aa",
	"mpeg2dec/canceled":     "d8f90d6bf45cdc4d",
	"mpeg2enc/canceled":     "efc6e79ca2b0605a",
	"edgedetect/canceled":   "bca020bfd0eeea1f",
	"h264deblock/canceled":  "69c5de20a81a740d",
	"synth-stress/canceled": "370bff5f8ff5720f",

	"blowfish/improve":     "93a553e13a0b3ba4",
	"rijndael/improve":     "7e84254d728fe13d",
	"sha/improve":          "f0c867ced0e6df6f",
	"crc/improve":          "8511bcce26e9809b",
	"ipchains/improve":     "7158706d2b11acc2",
	"url/improve":          "147dc872b7ed48c1",
	"gsmdecode/improve":    "18d155e175887bcf",
	"gsmencode/improve":    "1ffee8c91d20e8fa",
	"rawcaudio/improve":    "b04f0f8e1c87d64a",
	"rawdaudio/improve":    "abac0533ecac86be",
	"cjpeg/improve":        "7419c9768b1601c0",
	"djpeg/improve":        "d293dc0880cb520b",
	"mpeg2dec/improve":     "8cc75c26a18419f3",
	"mpeg2enc/improve":     "b05ca4e3533777d7",
	"edgedetect/improve":   "5c2b4aba462f2440",
	"h264deblock/improve":  "027e74e401bbea4c",
	"synth-stress/improve": "038fcd64e59f9b13",

	"blowfish/overshoot-1":     "ccd47401abd3897d",
	"rijndael/overshoot-1":     "4e3508052f059ca9",
	"sha/overshoot-1":          "d2eff4636316ed40",
	"crc/overshoot-1":          "405eeda0a763ec18",
	"ipchains/overshoot-1":     "c57b3073a1e248a8",
	"url/overshoot-1":          "b743c8f26b8339fc",
	"gsmdecode/overshoot-1":    "027e8f343c08481b",
	"gsmencode/overshoot-1":    "1c761266bf052d32",
	"rawcaudio/overshoot-1":    "b96b5b8ea0d8d511",
	"rawdaudio/overshoot-1":    "db6bc44173b75d2d",
	"cjpeg/overshoot-1":        "df1c4b2315195d22",
	"djpeg/overshoot-1":        "51905aac43a37fda",
	"mpeg2dec/overshoot-1":     "2daf9a0488773bb7",
	"mpeg2enc/overshoot-1":     "5e42837b9f03446c",
	"edgedetect/overshoot-1":   "75656a5a31a1950a",
	"h264deblock/overshoot-1":  "b55f373c3f8f0420",
	"synth-stress/overshoot-1": "43ec25f370f1a761",
}

// TestCandidateStreamPin explores the 16 benchmarks and the synthetic
// stress program under every pin variant and requires each digest to
// equal its pinned value.
func TestCandidateStreamPin(t *testing.T) {
	progs := []*ir.Program{}
	for _, b := range workloads.All() {
		progs = append(progs, b.Program)
	}
	stress, err := synth.Generate(synth.StressSpec())
	if err != nil {
		t.Fatal(err)
	}
	progs = append(progs, stress)
	lib := hwlib.Default()
	for _, v := range pinVariants {
		for _, p := range progs {
			cfg := DefaultConfig(lib)
			v.set(&cfg)
			key := p.Name + "/" + v.name
			if got, want := candidateDigest(Explore(p, cfg)), candidateStreamPins[key]; got != want {
				t.Errorf("%s: digest %s, want %s", key, got, want)
				t.Logf("\t%q: %q,", key, got)
			}
		}
	}
}
