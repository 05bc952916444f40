package partition

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"sparseorder/internal/gen"
	"sparseorder/internal/graph"
)

// This file keeps the reference FM pass as the oracle of the lean pass
// that production runs (fmPassFast): after every move it recomputes each
// unlocked neighbour's gain from scratch, and it queues entries in a
// plain swap-based binary heap.

// fmEntry is a heap element of the reference pass; stale entries (whose
// recorded gain no longer matches the current gain) are discarded lazily
// on pop.
type fmEntry struct {
	v    int32
	gain int
}

type fmHeap []fmEntry

func (h fmHeap) Len() int           { return len(h) }
func (h fmHeap) Less(i, j int) bool { return h[i].gain > h[j].gain }
func (h fmHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }

// fmPass is one reference FM pass, with fmPassFast's contract.
func fmPass(g *graph.Graph, side []uint8, gain []int, locked []bool, w *[2]int, max0, max1 int) bool {
	// Gain of moving v to the other side: external - internal edge weight.
	computeGain := func(v int) int {
		ext, inn := 0, 0
		for k := g.Ptr[v]; k < g.Ptr[v+1]; k++ {
			if side[g.Adj[k]] != side[v] {
				ext += g.EdgeWeight(k)
			} else {
				inn += g.EdgeWeight(k)
			}
		}
		return ext - inn
	}

	h := &fmHeap{}
	for v := 0; v < g.N; v++ {
		locked[v] = false
		gain[v] = computeGain(v)
		// Only boundary (or positive-gain) vertices are worth queueing.
		if gain[v] > 0 || isBoundary(g, side, v) {
			*h = append(*h, fmEntry{int32(v), gain[v]})
		}
	}
	heapInit(h)

	type move struct {
		v    int32
		gain int
	}
	var moves []move
	cumGain, bestGain, bestIdx := 0, 0, -1
	maxW := [2]int{max0, max1}

	for h.Len() > 0 {
		e := heapPop(h)
		v := int(e.v)
		if locked[v] || e.gain != gain[v] {
			continue // stale entry
		}
		to := 1 - side[v]
		if w[to]+g.VertexWeight(v) > maxW[to] {
			continue // move would violate balance
		}
		// Commit the tentative move.
		locked[v] = true
		w[side[v]] -= g.VertexWeight(v)
		side[v] = to
		w[to] += g.VertexWeight(v)
		cumGain += e.gain
		moves = append(moves, move{int32(v), e.gain})
		if cumGain > bestGain {
			bestGain = cumGain
			bestIdx = len(moves) - 1
		}
		if len(moves)-1-bestIdx > max(15, g.N/10) {
			break // the early stop, spelled out rather than shared
		}
		for k := g.Ptr[v]; k < g.Ptr[v+1]; k++ {
			u := g.Adj[k]
			if locked[u] {
				continue
			}
			gain[u] = computeGain(int(u))
			heapPush(h, fmEntry{u, gain[u]})
		}
	}

	// Roll back moves past the best prefix.
	for i := len(moves) - 1; i > bestIdx; i-- {
		v := moves[i].v
		w[side[v]] -= g.VertexWeight(int(v))
		side[v] = 1 - side[v]
		w[side[v]] += g.VertexWeight(int(v))
	}
	return bestGain > 0
}

func isBoundary(g *graph.Graph, side []uint8, v int) bool {
	for k := g.Ptr[v]; k < g.Ptr[v+1]; k++ {
		if side[g.Adj[k]] != side[v] {
			return true
		}
	}
	return false
}

// Minimal container/heap re-implementation specialised to fmHeap to avoid
// interface boxing in the hot path.
func heapInit(h *fmHeap) {
	n := h.Len()
	for i := n/2 - 1; i >= 0; i-- {
		heapDown(h, i, n)
	}
}

func heapPush(h *fmHeap, e fmEntry) {
	*h = append(*h, e)
	heapUp(h, h.Len()-1)
}

func heapPop(h *fmHeap) fmEntry {
	n := h.Len() - 1
	h.Swap(0, n)
	heapDown(h, 0, n)
	old := *h
	e := old[n]
	*h = old[:n]
	return e
}

func heapUp(h *fmHeap, j int) {
	for {
		i := (j - 1) / 2
		if i == j || !h.Less(j, i) {
			break
		}
		h.Swap(i, j)
		j = i
	}
}

func heapDown(h *fmHeap, i0, n int) {
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

// fmOracleCase runs the reference and the lean pass pass by pass on g from
// the same starting sides, with fmRefine's balance caps, and fails on the
// first pass whose side arrays, side weights or return values differ. It
// returns the number of passes that improved the cut.
func fmOracleCase(t *testing.T, name string, g *graph.Graph, start []uint8, frac float64) int {
	t.Helper()
	max0, max1 := fmCaps(g, frac)
	refSide := append([]uint8(nil), start...)
	leanSide := append([]uint8(nil), start...)
	var wRef [2]int
	for v := 0; v < g.N; v++ {
		wRef[start[v]] += g.VertexWeight(v)
	}
	wLean := wRef
	gainRef, lockedRef := make([]int, g.N), make([]bool, g.N)
	gainLean, lockedLean := make([]int, g.N), make([]bool, g.N)
	var st fmFastState
	improved := 0
	for pass := 0; pass < 2*refinePasses; pass++ {
		ref := fmPass(g, refSide, gainRef, lockedRef, &wRef, max0, max1)
		lean := fmPassFast(g, leanSide, gainLean, lockedLean, &wLean, max0, max1, &st)
		if ref != lean || wRef != wLean || !bytes.Equal(refSide, leanSide) {
			t.Fatalf("%s frac=%.2f pass %d: lean pass (improved=%v, w=%v) diverges from the reference (improved=%v, w=%v)",
				name, frac, pass, lean, wLean, ref, wRef)
		}
		if !ref {
			break
		}
		improved++
	}
	return improved
}

// fmFixtures are the graphs both FM pass tests run on: every coarsening
// level of a scrambled grid (coarse levels carry vertex and edge weights,
// and rng drives the coarsening), an irregular power-law graph and two
// cliques joined by a bridge. It returns them with their names in a fixed
// order, which keeps random sides drawn while iterating reproducible.
func fmFixtures(t *testing.T, rng *rand.Rand) ([]string, map[string]*graph.Graph) {
	t.Helper()
	grid, err := graph.FromMatrixSymmetrizedWorkers(gen.Scramble(gen.Grid2D(48, 48), 3), 1)
	if err != nil {
		t.Fatal(err)
	}
	kron, err := graph.FromMatrixSymmetrizedWorkers(gen.RMAT(9, 8, 5), 1)
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graph.Graph{"kron": kron, "cliques": twoCliquesBridge(t, 12)}
	levels := coarsen(grid, 16, Options{}, rng, new(Scratch))
	graphs["grid"] = grid
	weighted := false
	for i, lv := range levels {
		graphs[fmt.Sprintf("grid/level%d", i+1)] = lv.coarse
		weighted = weighted || (lv.coarse.VWgt != nil && lv.coarse.EWgt != nil)
	}
	if len(levels) < 3 || !weighted {
		t.Fatalf("coarsening gave %d levels (weighted=%v); want at least 3 weighted levels", len(levels), weighted)
	}
	names := make([]string, 0, len(graphs))
	for name := range graphs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, graphs
}

// fmStarts calls run with the initial bisection of g and with random
// sides, for an even and an uneven split.
func fmStarts(g *graph.Graph, rng *rand.Rand, run func(kind string, start []uint8, frac float64)) {
	for _, frac := range []float64{0.5, 0.6} {
		run("initial", initialBisection(g, frac, Options{}, rng, new(Scratch)), frac)
		random := make([]uint8, g.N)
		for v := range random {
			random[v] = uint8(rng.Intn(2))
		}
		run("random", random, frac)
	}
}

// TestLeanFMMatchesReference checks the lean FM pass against the reference
// pass on the fmFixtures graphs from both initial bisections and random
// sides, for an even and an uneven split.
func TestLeanFMMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	names, graphs := fmFixtures(t, rng)
	improved := 0
	for _, name := range names {
		g := graphs[name]
		fmStarts(g, rng, func(kind string, start []uint8, frac float64) {
			improved += fmOracleCase(t, name+"/"+kind, g, start, frac)
		})
	}
	if improved == 0 {
		t.Fatal("no pass improved a cut: the comparison exercised no moves")
	}
}

// TestCarriedFMMatchesReference runs production refinement state, the
// fmBuffers one Bisect owns, over the fmFixtures graphs in turn (so every
// graph finds the buffers dirty from a graph of another size, as a coarser
// level does), from both initial bisections and random sides, for an even
// and an uneven split. After every pass, whose gains and queue marks are
// carried from the pass before, it compares sides, side weights and return
// value with the reference pass run from scratch. It then checks that
// fmRefine itself, on the same buffers, ends where the passes ended.
func TestCarriedFMMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	names, graphs := fmFixtures(t, rng)
	maxN := 0
	for _, g := range graphs {
		maxN = max(maxN, g.N)
	}
	fb := new(fmBuffers)
	fb.reserve(maxN)
	carried := 0
	for _, name := range names {
		g := graphs[name]
		fmStarts(g, rng, func(kind string, start []uint8, frac float64) {
			max0, max1 := fmCaps(g, frac)
			refSide := append([]uint8(nil), start...)
			side := append([]uint8(nil), start...)
			var wRef [2]int
			for v := 0; v < g.N; v++ {
				wRef[start[v]] += g.VertexWeight(v)
			}
			w := wRef
			gain, locked, st := fb.level(g.N)
			for pass := 0; pass < refinePasses; pass++ {
				if pass > 0 {
					carried++
				}
				ref := fmPass(g, refSide, make([]int, g.N), make([]bool, g.N), &wRef, max0, max1)
				got := fmPassFast(g, side, gain, locked, &w, max0, max1, st)
				if got != ref || w != wRef || !bytes.Equal(side, refSide) {
					t.Fatalf("%s/%s frac=%.2f pass %d: carried pass (improved=%v, w=%v) diverges from the reference (improved=%v, w=%v)",
						name, kind, frac, pass, got, w, ref, wRef)
				}
				if !ref {
					break
				}
			}
			refined := append([]uint8(nil), start...)
			fmRefine(g, refined, frac, Options{}, fb)
			if !bytes.Equal(refined, side) {
				t.Fatalf("%s/%s frac=%.2f: fmRefine ends on other sides than its passes run one by one", name, kind, frac)
			}
		})
	}
	if carried == 0 {
		t.Fatal("no pass started from carried state")
	}
}

// TestFMPassNeverWorsensCut runs one lean pass on the fmFixtures graphs
// from initial bisections and random sides: rolling back to the best
// prefix must leave the cut no higher than at the start, however early
// the pass stopped, and a side that started within its weight cap must
// still be within it.
func TestFMPassNeverWorsensCut(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	names, graphs := fmFixtures(t, rng)
	lowered := 0
	for _, name := range names {
		g := graphs[name]
		fmStarts(g, rng, func(kind string, start []uint8, frac float64) {
			max0, max1 := fmCaps(g, frac)
			caps := [2]int{max0, max1}
			weights := func(side []uint8) [2]int {
				var w [2]int
				for v, s := range side {
					w[s] += g.VertexWeight(v)
				}
				return w
			}
			side := append([]uint8(nil), start...)
			w0 := weights(start)
			w := w0
			var st fmFastState
			fmPassFast(g, side, make([]int, g.N), make([]bool, g.N), &w, max0, max1, &st)
			before, after := cutOf(g, start), cutOf(g, side)
			if after > before {
				t.Errorf("%s/%s frac=%.2f: cut rose from %d to %d", name, kind, frac, before, after)
			}
			if after < before {
				lowered++
			}
			if got := weights(side); got != w {
				t.Errorf("%s/%s frac=%.2f: pass reports side weights %v, sides weigh %v", name, kind, frac, w, got)
			}
			for s := range 2 {
				if w0[s] <= caps[s] && w[s] > caps[s] {
					t.Errorf("%s/%s frac=%.2f: side %d weight %d exceeds its cap %d (started at %d)",
						name, kind, frac, s, w[s], caps[s], w0[s])
				}
			}
		})
	}
	if lowered == 0 {
		t.Fatal("no pass lowered a cut: the test exercised no moves")
	}
}

// TestKWayRejectsOversizedEdgeWeights builds a path whose total edge
// weight exceeds the int32 range of the FM gains: KWayMulti must refuse it
// with an error rather than refine with overflowing gains.
func TestKWayRejectsOversizedEdgeWeights(t *testing.T) {
	g := &graph.Graph{
		N:    3,
		Ptr:  []int{0, 1, 3, 4},
		Adj:  []int32{1, 0, 2, 1},
		EWgt: []int32{math.MaxInt32, math.MaxInt32, 1, 1},
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := kway(g, 2, Options{Seed: 1}); err == nil {
		t.Fatal("KWayMulti accepted a graph whose total edge weight exceeds int32")
	}
	g.EWgt = []int32{1, 1, 1, 1}
	if _, err := kway(g, 2, Options{Seed: 1}); err != nil {
		t.Fatalf("KWayMulti rejected a small graph: %v", err)
	}
}

// cutOf is the total weight of the edges whose ends lie on different
// sides.
func cutOf(g *graph.Graph, side []uint8) int {
	cut := 0
	for u := 0; u < g.N; u++ {
		for k := g.Ptr[u]; k < g.Ptr[u+1]; k++ {
			if side[g.Adj[k]] != side[u] {
				cut += g.EdgeWeight(k)
			}
		}
	}
	return cut / 2
}

// initialBisectionRef grows the same trials as initialBisection, in fresh
// buffers, and takes each trial's cut from a rescan of every edge (cutOf).
// It is the oracle of TestInitialBisectionMatchesReference.
func initialBisectionRef(g *graph.Graph, frac float64, rng *rand.Rand) []uint8 {
	total := g.TotalVertexWeight()
	target := int(frac * float64(total))
	max0 := int(float64(total) * frac * (1 + imbalance))
	max1 := int(float64(total) * (1 - frac) * (1 + imbalance))
	best := make([]uint8, g.N)
	bestCut, bestBalanced := -1, false
	for t := 0; t < initTrials; t++ {
		trial := make([]uint8, g.N)
		for i := range trial {
			trial[i] = 1
		}
		w := 0
		start := rng.Intn(g.N)
		if t == 0 {
			start = graph.PseudoPeripheral(g, start, nil, nil, nil)
		}
		queue := []int32{int32(start)}
		visited := make([]bool, g.N)
		visited[start] = true
		for head := 0; head < len(queue) && w < target; head++ {
			v := queue[head]
			if wt := g.VertexWeight(int(v)); w+wt <= max0 {
				trial[v] = 0
				w += wt
			}
			for _, u := range g.Neighbors(int(v)) {
				if !visited[u] {
					visited[u] = true
					queue = append(queue, u)
				}
			}
		}
		for v := 0; v < g.N && w < target; v++ {
			if wt := g.VertexWeight(v); trial[v] == 1 && w+wt <= max0 {
				trial[v] = 0
				w += wt
			}
		}
		cut := cutOf(g, trial)
		balanced := w <= max0 && total-w <= max1
		if balanced && !bestBalanced || balanced == bestBalanced && (bestCut < 0 || cut < bestCut) {
			bestCut, bestBalanced = cut, balanced
			copy(best, trial)
		}
	}
	return best
}

// TestInitialBisectionMatchesReference checks initialBisection, whose
// trials keep their cut current as vertices join side 0, against the
// rescanning oracle on the fmFixtures graphs, for several seeds and an
// even and an uneven split. One Scratch serves every call, so each call
// finds its buffers dirty from a graph of another size.
func TestInitialBisectionMatchesReference(t *testing.T) {
	names, graphs := fmFixtures(t, rand.New(rand.NewSource(37)))
	sc := new(Scratch)
	for _, name := range names {
		g := graphs[name]
		for _, frac := range []float64{0.5, 0.6} {
			for seed := int64(1); seed <= 5; seed++ {
				want := initialBisectionRef(g, frac, rand.New(rand.NewSource(seed)))
				got := initialBisection(g, frac, Options{}, rand.New(rand.NewSource(seed)), sc)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s frac=%.1f seed %d: initial bisection differs from the reference", name, frac, seed)
				}
			}
		}
	}
}
