package machine

import (
	"testing"

	"sparseorder/internal/gen"
	"sparseorder/internal/sparse"
)

// CacheSim is a set-associative LRU cache simulator, the oracle for the
// cost model's closed-form locality estimate (distinct lines + capacity
// term): the tests below replay the x-vector access stream through it and
// compare with the terms EstimateSpMV runs. It is deliberately simple —
// one level, true LRU — because it only needs to rank access streams, not
// reproduce a real hierarchy.
type CacheSim struct {
	sets     int
	ways     int
	lineSize int64
	tags     []int64 // sets × ways, -1 = empty
	age      []int64 // LRU timestamps aligned with tags
	clock    int64

	Hits   int64
	Misses int64
}

// NewCacheSim builds a simulator with the given capacity in bytes,
// associativity and line size. Capacity is rounded down to a whole number
// of sets; a minimum of one set is kept.
func NewCacheSim(capacityBytes int64, ways int, lineSize int64) *CacheSim {
	if ways < 1 {
		ways = 1
	}
	if lineSize < 8 {
		lineSize = 8
	}
	sets := int(capacityBytes / (int64(ways) * lineSize))
	if sets < 1 {
		sets = 1
	}
	c := &CacheSim{
		sets:     sets,
		ways:     ways,
		lineSize: lineSize,
		tags:     make([]int64, sets*ways),
		age:      make([]int64, sets*ways),
	}
	for i := range c.tags {
		c.tags[i] = -1
	}
	return c
}

// Access touches the byte address and returns whether it hit.
func (c *CacheSim) Access(addr int64) bool {
	c.clock++
	line := addr / c.lineSize
	set := int(line % int64(c.sets))
	base := set * c.ways
	victim := base
	oldest := c.age[base]
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.tags[i] == line {
			c.age[i] = c.clock
			c.Hits++
			return true
		}
		if c.age[i] < oldest {
			oldest = c.age[i]
			victim = i
		}
	}
	c.tags[victim] = line
	c.age[victim] = c.clock
	c.Misses++
	return false
}

// Reset clears contents and counters.
func (c *CacheSim) Reset() {
	for i := range c.tags {
		c.tags[i] = -1
		c.age[i] = 0
	}
	c.clock = 0
	c.Hits = 0
	c.Misses = 0
}

// SimulateXMisses replays the x-vector accesses of one thread's nonzero
// range [kLo, kHi) of matrix a through the cache and returns the miss
// count. Each nonzero reads x[col], i.e. byte address 8·col.
func SimulateXMisses(a *sparse.CSR, kLo, kHi int, cache *CacheSim) int64 {
	cache.Reset()
	for k := kLo; k < kHi; k++ {
		cache.Access(int64(a.ColIdx[k]) * 8)
	}
	return cache.Misses
}

// modelXLines is EstimateSpMV's x traffic in cache lines, summed over the
// thread ranges of kSplit: each range's cold lines plus its capacity term,
// with the LLC-fit fade off (capScale 1), since the simulation models no
// shared cache.
func modelXLines(a *sparse.CSR, kSplit []int, effLines float64) float64 {
	nnz, _, distinct := threadFootprints(a, kSplit)
	lines := 0.0
	for th := range nnz {
		lines += float64(distinct[th]) + capacityBytes(nnz[th], distinct[th], effLines, 1)/cacheLine
	}
	return lines
}

func TestCacheSimBasics(t *testing.T) {
	c := NewCacheSim(1024, 4, 64) // 16 lines, 4 sets x 4 ways
	if c.Access(0) {
		t.Error("first access must miss")
	}
	if !c.Access(8) {
		t.Error("same line must hit")
	}
	if !c.Access(0) {
		t.Error("repeat must hit")
	}
	if c.Misses != 1 || c.Hits != 2 {
		t.Errorf("counters: %d misses %d hits", c.Misses, c.Hits)
	}
	c.Reset()
	if c.Misses != 0 || c.Hits != 0 {
		t.Error("reset failed")
	}
}

func TestCacheSimLRUEviction(t *testing.T) {
	// Direct-mapped, 2 sets: lines 0 and 2 share set 0.
	c := NewCacheSim(128, 1, 64)
	c.Access(0)      // line 0 -> set 0
	c.Access(2 * 64) // line 2 -> set 0, evicts line 0
	if c.Access(0) { // line 0 must have been evicted
		t.Error("conflict eviction did not happen")
	}
}

func TestCacheSimAssociativityHelps(t *testing.T) {
	// Two lines mapping to one set: associative cache keeps both.
	c := NewCacheSim(128, 2, 64) // 1 set x 2 ways
	c.Access(0)
	c.Access(64)
	if !c.Access(0) || !c.Access(64) {
		t.Error("2-way cache should hold both lines")
	}
}

func TestCacheSimWorkingSetBoundary(t *testing.T) {
	// Streaming over a working set that fits: only cold misses on the
	// second pass. Over one that doesn't: misses every pass.
	c := NewCacheSim(64*64, 8, 64) // 64 lines
	for pass := 0; pass < 2; pass++ {
		for l := 0; l < 32; l++ {
			c.Access(int64(l) * 64)
		}
	}
	if c.Misses != 32 {
		t.Errorf("fitting working set: %d misses, want 32 cold", c.Misses)
	}
	c.Reset()
	for pass := 0; pass < 2; pass++ {
		for l := 0; l < 1024; l++ {
			c.Access(int64(l) * 64)
		}
	}
	if c.Misses < 2000 {
		t.Errorf("thrashing working set: %d misses, want ~2048", c.Misses)
	}
}

// TestModelAgreesWithSimulationRanking validates the cost model's
// closed-form x-traffic estimate against the exact LRU simulation: across
// structurally different matrices the two must rank access streams the
// same way, and for cache-fitting streams the model's cold-miss count must
// match the simulation exactly.
func TestModelAgreesWithSimulationRanking(t *testing.T) {
	natural := gen.Grid2D(48, 48)
	scrambled := gen.Scramble(natural, 1)

	const cacheBytes = 4 * 1024 // 64 lines, a per-thread L2 share in miniature
	effLines := float64(cacheBytes / 64)

	// The model differentiates orderings through per-thread footprints
	// (over the whole matrix every ordering touches every column), so the
	// comparison sums over the 1D kernel's 16 per-thread ranges — each
	// thread gets its own cold cache, as on a real machine.
	perThread := func(a *sparse.CSR) (sim int64, mod float64) {
		const threads = 16
		kSplit := make([]int, threads+1)
		for th := range kSplit {
			kSplit[th] = a.RowPtr[th*a.Rows/threads]
		}
		for th := 0; th < threads; th++ {
			sim += SimulateXMisses(a, kSplit[th], kSplit[th+1], NewCacheSim(cacheBytes, 8, 64))
		}
		return sim, modelXLines(a, kSplit, effLines)
	}
	simNat, modNat := perThread(natural)
	simScr, modScr := perThread(scrambled)

	if simScr <= simNat {
		t.Errorf("simulation: scrambled misses %d not above natural %d", simScr, simNat)
	}
	if modScr <= modNat {
		t.Errorf("model: scrambled estimate %.0f not above natural %.0f", modScr, modNat)
	}

	// A small banded stream fits in cache entirely: the simulation sees
	// only cold misses and the model must agree exactly (capacity term 0).
	small := gen.Grid2D(12, 12) // 144 columns = 18 lines << 256
	sim := SimulateXMisses(small, 0, small.NNZ(), NewCacheSim(cacheBytes, 8, 64))
	mod := modelXLines(small, []int{0, small.NNZ()}, effLines)
	if float64(sim) != mod {
		t.Errorf("cache-fitting stream: simulated %d, model %.1f (should be cold misses only)", sim, mod)
	}
}

// TestModelCapacityTermTracksSimulation checks that as the cache shrinks,
// both the simulation and the model report more traffic, and the model
// stays within a small factor of the simulation on a scrambled mesh.
func TestModelCapacityTermTracksSimulation(t *testing.T) {
	a := gen.Scramble(gen.Grid2D(64, 64), 2)
	sizes := []int64{4 * 1024, 16 * 1024, 64 * 1024}
	var prevSim int64 = 1 << 62
	var prevMod = 1e18
	for _, bytes := range sizes {
		sim := SimulateXMisses(a, 0, a.NNZ(), NewCacheSim(bytes, 8, 64))
		mod := modelXLines(a, []int{0, a.NNZ()}, float64(bytes/64))
		if sim > prevSim {
			t.Errorf("simulation not monotone in cache size at %d bytes", bytes)
		}
		if mod > prevMod {
			t.Errorf("model not monotone in cache size at %d bytes", bytes)
		}
		ratio := mod / float64(sim)
		if ratio < 0.1 || ratio > 10 {
			t.Errorf("cache %d: model %.0f vs simulated %d (ratio %.2f) outside 10x band", bytes, mod, sim, ratio)
		}
		prevSim, prevMod = sim, mod
	}
}
