package cfu

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"testing"

	"repro/internal/explore"
	"repro/internal/hwlib"
	"repro/internal/workloads"
)

// streamHash digests everything candidate discovery and combination hand
// downstream for one program: the ordered candidate list (block, ops,
// area and latency bits, ports), the exploration effort counters, and the
// combined CFUs (ID, mnemonic, shape, occurrences, value bits).
func streamHash(res *explore.Result, cfus []*CFU) string {
	buf := make([]byte, 0, 1<<16)
	num := func(v int) { buf = binary.AppendVarint(buf, int64(v)) }
	str := func(s string) { num(len(s)); buf = append(buf, s...) }
	ops := func(o []int) {
		num(len(o))
		for _, x := range o {
			num(x)
		}
	}
	bits := func(f float64) { buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f)) }

	num(len(res.Candidates))
	for _, c := range res.Candidates {
		str(c.Block.Name)
		ops(c.Ops)
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

	num(len(cfus))
	for _, c := range cfus {
		num(c.ID)
		str(c.Shape.Mnemonic())
		str(c.Shape.String())
		bits(c.Value)
		num(len(c.Occurrences))
		for _, o := range c.Occurrences {
			str(o.Block.Name)
			ops(o.Ops)
		}
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:8])
}

// streamPins are the digests of each benchmark's streams under three
// discovery configurations, recorded before exploration priced growth
// directions ahead of building them and before combination read sorted op
// lists instead of map sets. Both changes are pure performance work.
var streamPins = map[string]string{
	"blowfish/area":    "b9464fbdce406941",
	"rijndael/area":    "1ce51cbe54e3f721",
	"sha/area":         "8f767d5c1d826080",
	"crc/area":         "cf16fc3bbeb5c9d8",
	"ipchains/area":    "d24e6f0ea9a131b1",
	"url/area":         "2f0ce8efe3d62449",
	"gsmdecode/area":   "eabcbe74f4fc95cd",
	"gsmencode/area":   "82b100b1e1f5cf43",
	"rawcaudio/area":   "85becb69617cd2c2",
	"rawdaudio/area":   "e3e5686c44eab432",
	"cjpeg/area":       "a37f26a31b42e04f",
	"djpeg/area":       "9250ceee4923c46a",
	"mpeg2dec/area":    "ceda964361a09951",
	"mpeg2enc/area":    "dedb1923d8a10f47",
	"edgedetect/area":  "582341520012d1a8",
	"h264deblock/area": "11eec0cc9223df69",

	"blowfish/uarch":    "4fd08916845991ec",
	"rijndael/uarch":    "67aabd0f0085577b",
	"sha/uarch":         "67b28ab00920ae78",
	"crc/uarch":         "670a9f0360a9ca9b",
	"ipchains/uarch":    "5209d465520e63da",
	"url/uarch":         "1beca7ff465ab1e6",
	"gsmdecode/uarch":   "5e3e3d090ac34844",
	"gsmencode/uarch":   "f8e66b5441a8f6a1",
	"rawcaudio/uarch":   "1e55094751c0cfa7",
	"rawdaudio/uarch":   "b46f92b6db8ed381",
	"cjpeg/uarch":       "780acf1dc53ad4d2",
	"djpeg/uarch":       "7b0c3d526bb8c96e",
	"mpeg2dec/uarch":    "d9b6261147037f34",
	"mpeg2enc/uarch":    "a8e8fabe9d571943",
	"edgedetect/uarch":  "e81f153ef8dfe7f9",
	"h264deblock/uarch": "3cc2206a815c0b77",

	"blowfish/improve":    "d8859ab9170624ef",
	"rijndael/improve":    "fb04fc33885c9045",
	"sha/improve":         "cb549629af769cdb",
	"crc/improve":         "1eab80ad56bd4753",
	"ipchains/improve":    "130aeb4b2824e4b6",
	"url/improve":         "f733614d2d634334",
	"gsmdecode/improve":   "6de13d04d0d4970c",
	"gsmencode/improve":   "19f0eaf4619ebcbc",
	"rawcaudio/improve":   "511ad76556ef9759",
	"rawdaudio/improve":   "f8badacf15d1a061",
	"cjpeg/improve":       "6fe20c4593628ec8",
	"djpeg/improve":       "a90386d0f65759e0",
	"mpeg2dec/improve":    "2b9e010f63d181e0",
	"mpeg2enc/improve":    "b7f72e8ab9d33ef2",
	"edgedetect/improve":  "b2c0bcb72681ad33",
	"h264deblock/improve": "fac35073b215ed4e",
}

// TestStreamPin explores and combines every benchmark under the default
// configuration, the microarchitecture-aware cost model and the
// iterative-improvement strategy, and requires each digest to equal its
// pinned value: any drift in what discovery or combination computes fails.
// -short skips the uarch rows, the slowest under the race detector.
func TestStreamPin(t *testing.T) {
	lib := hwlib.Default()
	variants := []struct {
		name string
		set  func(*explore.Config)
	}{
		{"area", func(*explore.Config) {}},
		{"uarch", func(c *explore.Config) { c.CostModel = explore.CostUarch }},
		{"improve", func(c *explore.Config) { c.Strategy = explore.StrategyImprove }},
	}
	for _, v := range variants {
		if testing.Short() && v.name == "uarch" {
			continue
		}
		for _, b := range workloads.All() {
			cfg := explore.DefaultConfig(lib)
			v.set(&cfg)
			res := explore.Explore(b.Program, cfg)
			key := b.Name + "/" + v.name
			if got, want := streamHash(res, Combine(res, lib, CombineOptions{})), streamPins[key]; got != want {
				t.Errorf("%s: stream digest %s, want %s", key, got, want)
			}
		}
	}
}
