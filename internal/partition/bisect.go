package partition

import (
	"fmt"
	"math"
	"math/rand"

	"sparseorder/internal/fmheap"
	"sparseorder/internal/graph"
	"sparseorder/internal/par"
)

// Bisect splits g into two sides, with side 0 receiving roughly frac of
// the total vertex weight, using the full multilevel scheme. It returns
// side[v] ∈ {0, 1} for every vertex. With Options.Obs set, the three
// multilevel phases of this bisection land in the partition/coarsen,
// partition/initial and partition/refine duration histograms. g, or the
// graph it was induced from, must pass CheckEdgeWeights.
func Bisect(g *graph.Graph, frac float64, opts Options, rng *rand.Rand) []uint8 {
	opts = opts.withDefaults()
	if g.N == 0 {
		return nil
	}
	tm := opts.Obs.Phase("partition/coarsen").Start()
	levels := coarsen(g, opts, rng)
	tm.Stop()
	coarsest := g
	if len(levels) > 0 {
		coarsest = levels[len(levels)-1].coarse
	}
	tm = opts.Obs.Phase("partition/initial").Start()
	side := initialBisection(coarsest, frac, opts, rng)
	tm.Stop()
	tm = opts.Obs.Phase("partition/refine").Start()
	fmRefine(coarsest, side, frac, opts)
	for i := len(levels) - 1; i >= 0; i-- {
		if par.Canceled(opts.Cancel) {
			tm.Stop()
			return make([]uint8, g.N)
		}
		lv := levels[i]
		fineSide := make([]uint8, lv.fine.N)
		for v := 0; v < lv.fine.N; v++ {
			fineSide[v] = side[lv.cmap[v]]
		}
		side = fineSide
		fmRefine(lv.fine, side, frac, opts)
	}
	tm.Stop()
	if len(side) != g.N {
		// Cancelled before uncoarsening finished: return a well-formed (all
		// zero) assignment; the caller discards it once it observes Cancel.
		return make([]uint8, g.N)
	}
	return side
}

// initialBisection grows side 0 by repeated BFS region growing from random
// seeds, keeping the attempt with the lowest cut among balanced attempts.
// Balance uses the same per-side caps as fmRefine ((1+ε)·frac·total and
// (1+ε)·(1-frac)·total): an overweight trial can never be repaired by FM,
// which only vetoes moves into a full side and cannot drain one that is
// already over its cap, so a balanced trial always wins over an
// unbalanced one regardless of cut. Only when every trial is unbalanced
// (heavy-vertex overshoot on weighted graphs) does the lowest-cut
// unbalanced attempt survive as a fallback.
func initialBisection(g *graph.Graph, frac float64, opts Options, rng *rand.Rand) []uint8 {
	total := g.TotalVertexWeight()
	target := int(frac * float64(total))
	max0 := int(float64(total) * frac * (1 + opts.Imbalance))
	max1 := int(float64(total) * (1 - frac) * (1 + opts.Imbalance))
	best := make([]uint8, g.N)
	bestCut := -1
	bestBalanced := false
	trial := make([]uint8, g.N)
	for t := 0; t < opts.InitTrials; t++ {
		if t > 0 && par.Canceled(opts.Cancel) {
			break // keep the best trial so far; the caller bails out next check
		}
		for i := range trial {
			trial[i] = 1
		}
		w := 0
		start := rng.Intn(g.N)
		if t == 0 {
			start, _ = graph.PseudoPeripheral(g, start, nil)
		}
		queue := []int32{int32(start)}
		visited := make([]bool, g.N)
		visited[start] = true
		for head := 0; head < len(queue) && w < target; head++ {
			v := queue[head]
			// Growing past max0 would make the trial unrepairably overweight
			// (coarse vertices carry aggregated weights, so one grab can blow
			// the whole imbalance budget); leave v on side 1 and keep growing
			// through lighter frontier vertices instead.
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
		// Disconnected graphs: the BFS may exhaust the component before
		// reaching the target weight; keep absorbing unvisited vertices.
		for v := 0; v < g.N && w < target; v++ {
			if wt := g.VertexWeight(v); trial[v] == 1 && w+wt <= max0 {
				trial[v] = 0
				w += wt
			}
		}
		cut := cutOf(g, trial)
		balanced := w <= max0 && total-w <= max1
		switch {
		case balanced && !bestBalanced,
			balanced == bestBalanced && (bestCut < 0 || cut < bestCut):
			bestCut = cut
			bestBalanced = balanced
			copy(best, trial)
		}
	}
	return best
}

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

// fmRefine performs boundary Fiduccia-Mattheyses passes on the bisection:
// each pass tentatively moves vertices, each at most once, in
// best-gain-first order subject to the balance constraint, until the heap
// empties or a bounded run of moves (fmheap.PassLimit) fails to improve
// the cut, then rolls back to the best prefix observed. Passes repeat
// until no pass improves the cut. Every worker count runs the same lean
// pass (fmPassFast); its gains travel in int32 heap entries, which holds
// because KWay and nested dissection check CheckEdgeWeights once on their
// input graph and coarsening never raises the total edge weight.
func fmRefine(g *graph.Graph, side []uint8, frac float64, opts Options) {
	total := g.TotalVertexWeight()
	max0 := int(float64(total) * frac * (1 + opts.Imbalance))
	max1 := int(float64(total) * (1 - frac) * (1 + opts.Imbalance))
	if max0 <= 0 {
		max0 = 1
	}
	if max1 <= 0 {
		max1 = 1
	}
	w := [2]int{}
	for v := 0; v < g.N; v++ {
		w[side[v]] += g.VertexWeight(v)
	}

	gain := make([]int, g.N)
	locked := make([]bool, g.N)
	var st fmFastState
	for pass := 0; pass < opts.RefinePasses; pass++ {
		if par.Canceled(opts.Cancel) {
			return
		}
		if !fmPassFast(g, side, gain, locked, &w, max0, max1, &st) {
			break
		}
	}
}

// CheckEdgeWeights reports whether g's total edge weight fits the int32
// gains of the FM refinement. Every FM gain is bounded by that total, and
// coarsening and induced subgraphs never raise it, so one check on the
// input graph covers every level of the recursion. KWay runs it itself;
// callers that drive VertexSeparator or Bisect directly run it once first.
func CheckEdgeWeights(g *graph.Graph) error {
	t := int64(len(g.Adj)) // 1 per edge slot when unweighted
	if g.EWgt != nil {
		t = 0
		for _, w := range g.EWgt {
			t += int64(w)
		}
	}
	if t > math.MaxInt32 {
		return fmt.Errorf("partition: total edge weight %d exceeds the int32 gain range", t)
	}
	return nil
}

// fmFastState carries fmPassFast's buffers across passes so their backing
// arrays stay out of the allocator.
type fmFastState struct {
	heap  []fmheap.Entry
	moves []fmheap.Entry
}

// fmPassFast is one FM pass with the bookkeeping of the classic FM
// implementation: when v moves off side s, a neighbour u's gain changes by
// exactly +2·w(u,v) if u sits on s and -2·w(u,v) otherwise, so the
// maintained gains equal recomputed ones and the heap receives the same
// entries in the same order as a pass that rescans every neighbour's
// edges after each move. That rescanning pass is kept in the tests as the
// oracle (TestLeanFMMatchesReference); the packed heap makes the same
// comparisons as its swap-based heap, so the move sequence, and with it
// the bisection, is byte-identical to it. The pass stops once more than
// fmheap.PassLimit(g.N) moves have gone by without improving on the best
// prefix.
func fmPassFast(g *graph.Graph, side []uint8, gain []int, locked []bool, w *[2]int, max0, max1 int, st *fmFastState) bool {
	ew := g.EWgt
	edgeWeight := func(k int) int {
		if ew == nil {
			return 1
		}
		return int(ew[k])
	}

	h := st.heap[:0]
	for v := 0; v < g.N; v++ {
		locked[v] = false
		ext, inn := 0, 0
		boundary := false
		for k := g.Ptr[v]; k < g.Ptr[v+1]; k++ {
			if side[g.Adj[k]] != side[v] {
				ext += edgeWeight(k)
				boundary = true
			} else {
				inn += edgeWeight(k)
			}
		}
		gain[v] = ext - inn
		// Only boundary (or positive-gain) vertices are worth queueing.
		if gain[v] > 0 || boundary {
			h = append(h, fmheap.Entry{V: int32(v), Gain: int32(gain[v])})
		}
	}
	fmheap.Init(h)

	moves := st.moves[:0]
	cumGain, bestGain, bestIdx := 0, 0, -1
	maxW := [2]int{max0, max1}
	limit := fmheap.PassLimit(g.N)

	for len(h) > 0 {
		var e fmheap.Entry
		e, h = fmheap.Pop(h)
		v := int(e.V)
		if locked[v] || int(e.Gain) != gain[v] {
			continue // stale entry
		}
		from := side[v]
		to := 1 - from
		if w[to]+g.VertexWeight(v) > maxW[to] {
			continue // move would violate balance
		}
		locked[v] = true
		w[from] -= g.VertexWeight(v)
		side[v] = to
		w[to] += g.VertexWeight(v)
		cumGain += int(e.Gain)
		moves = append(moves, e)
		if cumGain > bestGain {
			bestGain = cumGain
			bestIdx = len(moves) - 1
		}
		if len(moves)-1-bestIdx > limit {
			break // the last limit moves did not improve on the best prefix
		}
		for k := g.Ptr[v]; k < g.Ptr[v+1]; k++ {
			u := g.Adj[k]
			if locked[u] {
				continue
			}
			// v left u's side (gain up) or joined it (gain down).
			if side[u] == from {
				gain[u] += 2 * edgeWeight(k)
			} else {
				gain[u] -= 2 * edgeWeight(k)
			}
			h = fmheap.Push(h, fmheap.Entry{V: u, Gain: int32(gain[u])})
		}
	}

	// Roll back moves past the best prefix.
	for i := len(moves) - 1; i > bestIdx; i-- {
		v := moves[i].V
		w[side[v]] -= g.VertexWeight(int(v))
		side[v] = 1 - side[v]
		w[side[v]] += g.VertexWeight(int(v))
	}
	st.heap, st.moves = h, moves
	return bestGain > 0
}
