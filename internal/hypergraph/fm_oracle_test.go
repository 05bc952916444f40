package hypergraph

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"sparseorder/internal/gen"
)

// This file keeps the reference FM pass as the oracle of the lean pass
// that production runs (fmPassFast): after each move it recomputes the
// gain of every pin it re-queues by rescanning the pin's nets, and it
// queues entries in a plain swap-based binary heap.

type hEntry struct {
	v    int32
	gain int
}

type hHeap []hEntry

func (h hHeap) Len() int           { return len(h) }
func (h hHeap) Less(i, j int) bool { return h[i].gain > h[j].gain }
func (h hHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }

func hHeapInit(h *hHeap) {
	n := h.Len()
	for i := n/2 - 1; i >= 0; i-- {
		hHeapDown(h, i, n)
	}
}

func hHeapPush(h *hHeap, e hEntry) {
	*h = append(*h, e)
	j := h.Len() - 1
	for {
		i := (j - 1) / 2
		if i == j || !h.Less(j, i) {
			break
		}
		h.Swap(i, j)
		j = i
	}
}

func hHeapPop(h *hHeap) hEntry {
	n := h.Len() - 1
	h.Swap(0, n)
	hHeapDown(h, 0, n)
	old := *h
	e := old[n]
	*h = old[:n]
	return e
}

func hHeapDown(h *hHeap, i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h.Less(j2, j1) {
			j = j2
		}
		if !h.Less(j, i) {
			break
		}
		h.Swap(i, j)
		i = j
	}
}

// fmPass is one reference FM pass, with fmPassFast's contract: it
// recomputes every queued pin's gain from the net counts (gainOf).
func fmPass(h *Hypergraph, side []uint8, maxW [2]int) bool {
	// count[n][s] = pins of net n currently on side s.
	count := make([][2]int32, h.Nets)
	for n := 0; n < h.Nets; n++ {
		for _, v := range h.Pins(n) {
			count[n][side[v]]++
		}
	}
	w := [2]int{}
	for v := 0; v < h.V; v++ {
		w[side[v]] += h.VertexWeight(v)
	}

	gainOf := func(v int) int {
		g := 0
		s := side[v]
		for _, n := range h.NetsOf(v) {
			c := count[n]
			size := c[0] + c[1]
			if size < 2 {
				continue
			}
			if c[1-s] == 0 {
				g-- // currently internal; the move cuts it
			} else if c[s] == 1 {
				g++ // v is the last pin on s; the move uncuts it
			}
		}
		return g
	}

	// Only boundary vertices (pins of cut nets) can have positive gain, so
	// the pass restricts attention to them, as PaToH's boundary FM does.
	isBoundary := make([]bool, h.V)
	for n := 0; n < h.Nets; n++ {
		if count[n][0] > 0 && count[n][1] > 0 {
			for _, v := range h.Pins(n) {
				isBoundary[v] = true
			}
		}
	}
	gain := make([]int, h.V)
	locked := make([]bool, h.V)
	pq := &hHeap{}
	for v := 0; v < h.V; v++ {
		if !isBoundary[v] {
			continue
		}
		gain[v] = gainOf(v)
		*pq = append(*pq, hEntry{int32(v), gain[v]})
	}
	hHeapInit(pq)

	type move struct{ v int32 }
	var moves []move
	cumGain, bestGain, bestIdx := 0, 0, -1

	for pq.Len() > 0 {
		e := hHeapPop(pq)
		v := int(e.v)
		if locked[v] || e.gain != gain[v] {
			continue
		}
		to := 1 - side[v]
		if w[to]+h.VertexWeight(v) > maxW[to] {
			continue
		}
		locked[v] = true
		w[side[v]] -= h.VertexWeight(v)
		// Update net counts, then refresh gains of the affected pins. Very
		// large nets are skipped in the gain refresh (their cut state almost
		// never flips from one move); stale heap entries are discarded on pop.
		// The rule is spelled out here rather than shared with the lean pass.
		const maxUpdateNetSize = 128
		for _, n := range h.NetsOf(v) {
			count[n][side[v]]--
			count[n][to]++
			pins := h.Pins(int(n))
			if len(pins) > maxUpdateNetSize {
				continue
			}
			for _, u := range pins {
				if !locked[u] {
					gain[u] = gainOf(int(u))
					hHeapPush(pq, hEntry{u, gain[u]})
				}
			}
		}
		side[v] = to
		w[to] += h.VertexWeight(v)
		cumGain += e.gain
		moves = append(moves, move{int32(v)})
		if cumGain > bestGain {
			bestGain = cumGain
			bestIdx = len(moves) - 1
		}
		if len(moves)-1-bestIdx > max(15, h.V/10) {
			break // the early stop, spelled out rather than shared
		}
	}

	for i := len(moves) - 1; i > bestIdx; i-- {
		v := moves[i].v
		s := side[v]
		w[s] -= h.VertexWeight(int(v))
		side[v] = 1 - s
		w[side[v]] += h.VertexWeight(int(v))
	}
	return bestGain > 0
}

// fmOracleCase runs the reference and the lean pass pass by pass on h from
// the same starting sides, with fmRefine's balance caps, and fails on the
// first pass whose side arrays or return values differ. It returns the
// number of passes that improved the cut.
func fmOracleCase(t *testing.T, name string, h *Hypergraph, start []uint8, frac float64) int {
	t.Helper()
	maxW := sideCaps(h, frac)
	refSide := append([]uint8(nil), start...)
	leanSide := append([]uint8(nil), start...)
	st := newFMState(h)
	improved := 0
	for pass := 0; pass < 2*refinePasses; pass++ {
		ref := fmPass(h, refSide, maxW)
		lean := fmPassFast(h, leanSide, maxW, st)
		if ref != lean || !bytes.Equal(refSide, leanSide) {
			t.Fatalf("%s frac=%.2f pass %d: lean pass (improved=%v) diverges from the reference (improved=%v)",
				name, frac, pass, lean, ref)
		}
		if !ref {
			break
		}
		improved++
	}
	return improved
}

// fmFixtures are the hypergraphs both FM pass tests run on: every
// coarsening level of a scrambled grid's column-net hypergraph (coarse
// levels carry vertex weights); a hypergraph whose dense nets exceed
// maxUpdateNetSize pins; one with single-pin and empty nets; and the
// sub-hypergraphs that KWay (cut nets dropped) and a connectivity-1
// recursion (cut nets split, see splitNets) recurse into. rng drives the coarsening and the bisection
// the sub-hypergraphs come from. It returns them with their names in a
// fixed order, which keeps random sides drawn while iterating
// reproducible.
func fmFixtures(t *testing.T, rng *rand.Rand) ([]string, map[string]*Hypergraph) {
	t.Helper()
	grid := ColumnNet(gen.Scramble(gen.Grid2D(48, 48), 3))
	hs := map[string]*Hypergraph{"grid": grid}
	levels := coarsen(grid, 16, rng, nil)
	if len(levels) < 3 {
		t.Fatalf("coarsening gave %d levels, want at least 3", len(levels))
	}
	for i, lv := range levels {
		hs[fmt.Sprintf("grid/level%d", i+1)] = lv.coarse
	}

	// The column nets of the transpose are the rows of the original, so
	// the injected dense rows become large nets: some just above
	// maxUpdateNetSize pins, some far above it.
	dense := ColumnNet(gen.WithDenseRows(gen.WithDenseRows(gen.Grid2D(30, 30), 4, 0.18, 17), 4, 0.45, 18).Transpose())
	nearRule, farAbove := 0, 0
	for n := 0; n < dense.Nets; n++ {
		switch size := len(dense.Pins(n)); {
		case size > 2*maxUpdateNetSize:
			farAbove++
		case size > maxUpdateNetSize:
			nearRule++
		}
	}
	if nearRule == 0 || farAbove == 0 {
		t.Fatalf("dense hypergraph has %d nets in (128, 256] pins and %d above 256; want both", nearRule, farAbove)
	}
	hs["dense"] = dense

	// Append one single-pin net for every third vertex and an empty net.
	small := ColumnNet(gen.Scramble(gen.Grid2D(20, 20), 4))
	single := &Hypergraph{V: small.V, NPtr: append([]int(nil), small.NPtr...), NPins: append([]int32(nil), small.NPins...)}
	for v := 0; v < small.V; v += 3 {
		single.NPins = append(single.NPins, int32(v))
		single.NPtr = append(single.NPtr, len(single.NPins))
	}
	single.NPtr = append(single.NPtr, len(single.NPins))
	single.Nets = len(single.NPtr) - 1
	single.BuildVertexIncidence()
	if err := single.Validate(); err != nil {
		t.Fatal(err)
	}
	hs["single-pin"] = single

	// One level of each recursion: split by a bisection, then induce.
	side := Bisect(grid, 0.5, Options{Seed: 2}, rng)
	var left []int32
	for v, s := range side {
		if s == 0 {
			left = append(left, int32(v))
		}
	}
	hs["kway/induced"], _ = induced(grid, left)
	hs["kwayconnectivity/induced"] = splitNets(grid, left)

	names := make([]string, 0, len(hs))
	for name := range hs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, hs
}

// splitNets is the sub-hypergraph on verts with every net restricted to
// its pins in verts and kept if at least two remain: the subproblem rule
// of the connectivity-1 recursion, which internal/reorder keeps as an
// ablation.
func splitNets(root *Hypergraph, verts []int32) *Hypergraph {
	local := make([]int32, root.V)
	for i := range local {
		local[i] = -1
	}
	sub := &Hypergraph{V: len(verts), NPtr: []int{0}, VWgt: make([]int32, len(verts))}
	for i, v := range verts {
		local[v] = int32(i)
		sub.VWgt[i] = int32(root.VertexWeight(int(v)))
	}
	for n := 0; n < root.Nets; n++ {
		start := len(sub.NPins)
		for _, u := range root.Pins(n) {
			if local[u] >= 0 {
				sub.NPins = append(sub.NPins, local[u])
			}
		}
		if len(sub.NPins)-start < 2 {
			sub.NPins = sub.NPins[:start]
			continue
		}
		sub.NPtr = append(sub.NPtr, len(sub.NPins))
	}
	sub.Nets = len(sub.NPtr) - 1
	sub.BuildVertexIncidence()
	return sub
}

// fmStarts calls run with the initial bisection of h and with random
// sides, for an even and an uneven split.
func fmStarts(h *Hypergraph, rng *rand.Rand, run func(kind string, start []uint8, frac float64)) {
	for _, frac := range []float64{0.5, 0.6} {
		run("initial", initialBisection(h, frac, Options{}, rng), frac)
		random := make([]uint8, h.V)
		for v := range random {
			random[v] = uint8(rng.Intn(2))
		}
		run("random", random, frac)
	}
}

// TestLeanFMMatchesReference checks the lean FM pass against the reference
// pass on the fmFixtures hypergraphs from initial bisections and random
// sides, for an even and an uneven split.
func TestLeanFMMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	names, hs := fmFixtures(t, rng)
	improved := 0
	for _, name := range names {
		h := hs[name]
		fmStarts(h, rng, func(kind string, start []uint8, frac float64) {
			improved += fmOracleCase(t, name+"/"+kind, h, start, frac)
		})
	}
	if improved == 0 {
		t.Fatal("no pass improved a cut: the comparison exercised no moves")
	}
}

// cutNets counts the nets with pins on both sides.
func cutNets(h *Hypergraph, side []uint8) int {
	cut := 0
	for n := 0; n < h.Nets; n++ {
		var on [2]bool
		for _, v := range h.Pins(n) {
			on[side[v]] = true
		}
		if on[0] && on[1] {
			cut++
		}
	}
	return cut
}

// TestFMPassNeverWorsensCut runs one lean pass on the fmFixtures
// hypergraphs from initial bisections and random sides: rolling back to
// the best prefix must leave the cut no higher than at the start, however
// early the pass stopped, and a side that started within its weight cap
// must still be within it.
func TestFMPassNeverWorsensCut(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	names, hs := fmFixtures(t, rng)
	lowered := 0
	for _, name := range names {
		h := hs[name]
		fmStarts(h, rng, func(kind string, start []uint8, frac float64) {
			maxW := sideCaps(h, frac)
			weights := func(side []uint8) [2]int {
				var w [2]int
				for v, s := range side {
					w[s] += h.VertexWeight(v)
				}
				return w
			}
			side := append([]uint8(nil), start...)
			fmPassFast(h, side, maxW, newFMState(h))
			before, after := cutNets(h, start), cutNets(h, side)
			if after > before {
				t.Errorf("%s/%s frac=%.2f: cut rose from %d to %d nets", name, kind, frac, before, after)
			}
			if after < before {
				lowered++
			}
			w0, w := weights(start), weights(side)
			for s := range 2 {
				if w0[s] <= maxW[s] && w[s] > maxW[s] {
					t.Errorf("%s/%s frac=%.2f: side %d weight %d exceeds its cap %d (started at %d)",
						name, kind, frac, s, w[s], maxW[s], w0[s])
				}
			}
		})
	}
	if lowered == 0 {
		t.Fatal("no pass lowered a cut: the test exercised no moves")
	}
}
