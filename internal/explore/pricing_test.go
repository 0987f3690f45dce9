package explore

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/hwlib"
	"repro/internal/ir"
	"repro/internal/synth"
	"repro/internal/workloads"
)

// pricingPrograms returns every benchmark plus three seeded synthetic
// programs: the blocks the pricing property is checked on.
func pricingPrograms(t *testing.T) []*ir.Program {
	var progs []*ir.Program
	for _, b := range workloads.All() {
		progs = append(progs, b.Program)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		spec := synth.DefaultSpec()
		spec.Seed = seed
		p, err := synth.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	return progs
}

// frontier lists cur's eligible growth directions in ascending op order,
// as exploreBlock enumerates them.
func frontier(c *blockCtx, cur *workItem) []int {
	var out []int
	for wi, wd := range cur.nbrUnion {
		if wi < len(cur.set) {
			wd &^= cur.set[wi]
		}
		for wd != 0 {
			nb := wi<<6 + bits.TrailingZeros64(wd)
			wd &= wd - 1
			if c.allowed.has(nb) {
				out = append(out, nb)
			}
		}
	}
	return out
}

// fromScratch prices the subgraph made of ops, summing area in the given
// (growth) order and taking latency and ports from longestPath and numIO
// on a freshly built item. It also returns each member's depth, read from
// the longest-path workspace before anything else overwrites it.
func fromScratch(c *blockCtx, ops []int) (price, []float64) {
	w := &workItem{set: newBitset(c.n), argUnion: newBitset(c.nv)}
	var p price
	for _, m := range ops {
		w.set.set(m)
		w.argUnion.orInto(c.argVals[m])
		p.area += c.area[m]
	}
	w.members = ascending(ops)
	p.latency = c.longestPath(w)
	p.in, p.out = c.numIO(w)
	depths := make([]float64, len(w.members))
	for k, m := range w.members {
		depths[k] = c.scratch[m]
	}
	return p, depths
}

func ascending(ops []int) []int {
	s := slices.Clone(ops)
	slices.Sort(s)
	return s
}

func samePrice(a, b price) bool {
	return math.Float64bits(a.area) == math.Float64bits(b.area) &&
		math.Float64bits(a.latency) == math.Float64bits(b.latency) &&
		a.in == b.in && a.out == b.out
}

// TestProbePricingMatchesGrowAndScratch grows random work items to random
// sizes on every block of the benchmarks and three synthetic programs. For
// each item it loads the depths once, prices every frontier direction with
// probe (as exploreBlock does), and requires each price to equal, bit for
// bit, both grow's item and a from-scratch recomputation of the grown set;
// grow's member list, depths and unions must match the from-scratch ones
// too.
func TestProbePricingMatchesGrowAndScratch(t *testing.T) {
	lib := hwlib.Default()
	rng := rand.New(rand.NewSource(1))
	checked := 0
	for _, p := range pricingPrograms(t) {
		for _, b := range p.Blocks {
			if len(b.Ops) == 0 {
				continue
			}
			c := newBlockCtx(b, lib)
			var eligible []int
			for i := 0; i < c.n; i++ {
				if c.allowed.has(i) {
					eligible = append(eligible, i)
				}
			}
			if len(eligible) == 0 {
				continue
			}
			for walk := 0; walk < 12; walk++ {
				order := []int{eligible[rng.Intn(len(eligible))]}
				cur := c.seed(order[0])
				target := 1 + rng.Intn(10)
				for {
					dirs := frontier(c, cur)
					c.loadDepths(cur)
					probed := make([]price, len(dirs))
					for i, nb := range dirs {
						probed[i] = c.probe(cur, nb)
					}
					for i, nb := range dirs {
						grownOrder := append(slices.Clone(order), nb)
						want, depths := fromScratch(c, grownOrder)
						c.loadDepths(cur)
						g := c.grow(cur, nb)
						label := fmt.Sprintf("%s/%s %v+%d", p.Name, b.Name, order, nb)
						if !samePrice(probed[i], want) {
							t.Fatalf("%s: probe %+v, from scratch %+v", label, probed[i], want)
						}
						if !samePrice(g.price, want) {
							t.Fatalf("%s: grow %+v, from scratch %+v", label, g.price, want)
						}
						if !slices.Equal(g.members, ascending(grownOrder)) {
							t.Fatalf("%s: grow members %v", label, g.members)
						}
						for k := range depths {
							if math.Float64bits(g.depths[k]) != math.Float64bits(depths[k]) {
								t.Fatalf("%s: grow depths %v, from scratch %v", label, g.depths, depths)
							}
						}
						for _, m := range g.members {
							if !g.set.has(m) {
								t.Fatalf("%s: member %d missing from set", label, m)
							}
						}
						if g.set.count() != len(g.members) {
							t.Fatalf("%s: set has %d bits for %d members", label, g.set.count(), len(g.members))
						}
						argU, nbrU := newBitset(c.nv), newBitset(c.n)
						for _, m := range g.members {
							argU.orInto(c.argVals[m])
							nbrU.orInto(c.nbrMask[m])
						}
						if !slices.Equal(g.argUnion, argU) || !slices.Equal(g.nbrUnion, nbrU) {
							t.Fatalf("%s: grow unions differ from scratch", label)
						}
						c.release(g)
						checked++
					}
					if len(order) >= target || len(dirs) == 0 {
						break
					}
					nb := dirs[rng.Intn(len(dirs))]
					c.loadDepths(cur)
					next := c.grow(cur, nb)
					c.release(cur)
					cur = next
					order = append(order, nb)
				}
				c.release(cur)
			}
		}
	}
	if checked < 10000 {
		t.Fatalf("only %d directions checked", checked)
	}
}

// TestFanoutSortOrderMatchesSortSlice checks that the fanout cap's
// slices.SortFunc with byScoreDesc leaves directions in exactly the order
// sort.Slice with less = a.score > b.score did, ties included, across the
// lengths where pdqsort switches from insertion sort to partitioning.
func TestFanoutSortOrderMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 1; n <= 40; n++ {
		for trial := 0; trial < 200; trial++ {
			levels := 1 + rng.Intn(4) // few distinct scores: heavy ties
			a := make([]scored, n)
			for i := range a {
				a[i] = scored{nb: i, score: 20 + 5*float64(rng.Intn(levels))}
			}
			b := slices.Clone(a)
			slices.SortFunc(a, byScoreDesc)
			sort.Slice(b, func(i, j int) bool { return b[i].score > b[j].score })
			if !slices.Equal(a, b) {
				t.Fatalf("n=%d trial %d: SortFunc %v, sort.Slice %v", n, trial, a, b)
			}
		}
	}
}
