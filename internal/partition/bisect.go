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
	if g.N == 0 {
		return nil
	}
	tm := opts.Obs.Phase("partition/coarsen").Start()
	levels := coarsen(g, coarsenTo, opts, rng)
	tm.Stop()
	coarsest := g
	if len(levels) > 0 {
		coarsest = levels[len(levels)-1].coarse
	}
	tm = opts.Obs.Phase("partition/initial").Start()
	side := initialBisection(coarsest, frac, opts, rng)
	tm.Stop()
	tm = opts.Obs.Phase("partition/refine").Start()
	fb := newFMBuffers(g.N)
	fmRefine(coarsest, side, frac, opts, fb)
	// Uncoarsening projects level i's sides into buffer i%2, which never
	// holds level i+1's, so two buffers sized by the two finest levels
	// serve every level.
	var sides [2][]uint8
	if len(levels) > 0 {
		sides[0] = make([]uint8, g.N)
	}
	if len(levels) > 1 {
		sides[1] = make([]uint8, levels[1].fine.N)
	}
	for i := len(levels) - 1; i >= 0; i-- {
		if par.Canceled(opts.Cancel) {
			tm.Stop()
			return make([]uint8, g.N)
		}
		lv := levels[i]
		fineSide := sides[i%2][:lv.fine.N]
		for v, c := range lv.cmap {
			fineSide[v] = side[c]
		}
		side = fineSide
		fmRefine(lv.fine, side, frac, opts, fb)
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
	max0 := int(float64(total) * frac * (1 + imbalance))
	max1 := int(float64(total) * (1 - frac) * (1 + imbalance))
	best := make([]uint8, g.N)
	bestCut := -1
	bestBalanced := false
	trial := make([]uint8, g.N)
	for t := 0; t < initTrials; t++ {
		if t > 0 && par.Canceled(opts.Cancel) {
			break // keep the best trial so far; the caller bails out next check
		}
		for i := range trial {
			trial[i] = 1
		}
		w := 0
		start := rng.Intn(g.N)
		if t == 0 {
			start, _ = graph.PseudoPeripheral(g, start, nil, opts.Cancel)
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
// until no pass improves the cut, each carrying its gains to the next
// (see fmPassFast). Every worker count runs the same lean pass; its gains
// travel in int32 heap entries, which holds because KWay and nested
// dissection check CheckEdgeWeights once on their input graph and
// coarsening never raises the total edge weight.
func fmRefine(g *graph.Graph, side []uint8, frac float64, opts Options, fb *fmBuffers) {
	max0, max1 := fmCaps(g, frac)
	w := [2]int{}
	for v := 0; v < g.N; v++ {
		w[side[v]] += g.VertexWeight(v)
	}
	gain, locked, st := fb.level(g.N)
	for pass := 0; pass < refinePasses; pass++ {
		if par.Canceled(opts.Cancel) {
			return
		}
		if !fmPassFast(g, side, gain, locked, &w, max0, max1, st) {
			break
		}
	}
}

// fmCaps returns the weight caps of sides 0 and 1, (1+ε)·frac·total and
// (1+ε)·(1-frac)·total, each at least 1.
func fmCaps(g *graph.Graph, frac float64) (max0, max1 int) {
	total := g.TotalVertexWeight()
	max0 = max(int(float64(total)*frac*(1+imbalance)), 1)
	max1 = max(int(float64(total)*(1-frac)*(1+imbalance)), 1)
	return max0, max1
}

// fmBuffers is the FM state of one Bisect: per-vertex gains, lock flags
// and queue marks allocated once at the finest level's size and resliced
// for every level, and the heap and move buffers every pass reuses. It
// belongs to its Bisect alone and dies with it.
type fmBuffers struct {
	gain   []int
	locked []bool
	st     fmFastState
}

func newFMBuffers(n int) *fmBuffers {
	return &fmBuffers{gain: make([]int, n), locked: make([]bool, n), st: fmFastState{mark: make([]uint8, n)}}
}

// level returns the buffers resliced for a level of n vertices, with
// nothing carried over from the previous level: the level's first pass
// computes every gain from scratch.
func (fb *fmBuffers) level(n int) ([]int, []bool, *fmFastState) {
	fb.st.warm = false
	return fb.gain[:n], fb.locked[:n], &fb.st
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

// fmFastState carries fmPassFast's buffers, and the queue marks and moves
// of the last pass, from one pass to the next.
type fmFastState struct {
	heap  []fmheap.Entry
	moves []fmheap.Entry
	// mark[v] says whether v goes into the next pass's heap (markQueued),
	// or, transiently, that its gain and mark are being recomputed.
	mark []uint8
	// warm reports that gain and mark hold the end of the last pass on the
	// same graph and sides, apart from the vertices in moves and their
	// neighbours. A zero fmFastState is cold.
	warm bool
}

// Queue marks of fmFastState.mark.
const (
	markIdle   uint8 = iota // interior vertex with gain ≤ 0: not queued
	markQueued              // boundary or positive-gain vertex: queued
	markStale               // gain and mark are being recomputed
)

// fmPassFast is one FM pass with the bookkeeping of the classic FM
// implementation: when v moves off side s, a neighbour u's gain changes by
// exactly +2·w(u,v) if u sits on s and -2·w(u,v) otherwise, so the
// maintained gains equal recomputed ones and the heap receives the same
// entries in the same order as a pass that rescans every neighbour's
// edges after each move. That rescanning pass is kept in the tests as the
// oracle (TestLeanFMMatchesReference, TestCarriedFMMatchesReference); the
// packed heap makes the same comparisons as its swap-based heap, so the
// move sequence, and with it the bisection, is byte-identical to it. The
// pass stops once more than fmheap.PassLimit(g.N) moves have gone by
// without improving on the best prefix.
//
// A cold st makes the pass compute every gain and queue mark from the
// edges. A warm one, left by the previous pass over the same g, side,
// gain and locked, carries them: a vertex's gain or boundary status can
// change only if it or a neighbour changed side, so only the previous
// pass's moved vertices (kept or rolled back) and their neighbours are
// recomputed. The heap is then filled by scanning the marks in ascending
// v, which queues exactly the entries, in exactly the order, of a full
// rescan.
func fmPassFast(g *graph.Graph, side []uint8, gain []int, locked []bool, w *[2]int, max0, max1 int, st *fmFastState) bool {
	ew := g.EWgt
	edgeWeight := func(k int) int {
		if ew == nil {
			return 1
		}
		return int(ew[k])
	}
	if len(st.mark) < g.N {
		st.mark, st.warm = make([]uint8, g.N), false
	}
	mark := st.mark[:g.N]
	refresh := func(v int) {
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
		mark[v] = markIdle
		if gain[v] > 0 || boundary {
			mark[v] = markQueued
		}
	}

	if st.warm {
		for _, e := range st.moves {
			v := e.V
			locked[v] = false
			mark[v] = markStale
			for _, u := range g.Adj[g.Ptr[v]:g.Ptr[v+1]] {
				mark[u] = markStale
			}
		}
		for _, e := range st.moves {
			v := e.V
			if mark[v] == markStale {
				refresh(int(v))
			}
			for _, u := range g.Adj[g.Ptr[v]:g.Ptr[v+1]] {
				if mark[u] == markStale {
					refresh(int(u))
				}
			}
		}
	} else {
		for v := 0; v < g.N; v++ {
			locked[v] = false
			refresh(v)
		}
	}
	h := st.heap[:0]
	for v, m := range mark {
		if m == markQueued {
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
	st.heap, st.moves, st.warm = h, moves, true
	return bestGain > 0
}
