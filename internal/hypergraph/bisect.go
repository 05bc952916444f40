package hypergraph

import (
	"math/rand"

	"sparseorder/internal/fmheap"
	"sparseorder/internal/obs"
	"sparseorder/internal/par"
)

// The partitioner's fixed configuration: the PaToH-style settings the
// study runs HP with.
const (
	imbalance    = 0.03 // allowed relative imbalance ε of each side
	coarsenTo    = 64   // coarsening stops at this many vertices
	initTrials   = 4    // BFS-growing attempts of the initial bisection
	refinePasses = 6    // FM passes per level at most
)

// Options control a run of the hypergraph partitioner.
type Options struct {
	Seed int64
	// Workers bounds the goroutines of the parallel recursive bisection
	// in KWay (0 = GOMAXPROCS, 1 = the exact serial recursion). Every
	// branch derives its own deterministic RNG seed and writes a disjoint
	// slice of the part assignment, so results are byte-identical at any
	// worker count.
	Workers int
	// Cancel, when non-nil, is polled at every bisection branch, coarsening
	// level, initial trial and refinement pass; once closed the partitioner
	// unwinds promptly. The assignment returned after a cancellation is
	// incomplete and must be discarded — the context-aware entry points do
	// so and surface the context's error instead. A nil channel never
	// cancels, and an uncancelled run is byte-identical either way.
	Cancel <-chan struct{}
	// Obs, when non-nil, receives per-level phase timings from every
	// bisection as hypergraph/coarsen, hypergraph/initial and
	// hypergraph/refine duration histograms (metrics only, no event-log
	// traffic). Nil disables timing entirely.
	Obs *obs.Obs
}

// Bisect splits the hypergraph's vertices into two sides, side 0 receiving
// roughly frac of the total vertex weight, minimising the cut-net metric
// through the full multilevel scheme.
func Bisect(h *Hypergraph, frac float64, opts Options, rng *rand.Rand) []uint8 {
	if h.V == 0 {
		return nil
	}
	tm := opts.Obs.Phase("hypergraph/coarsen").Start()
	levels := coarsen(h, coarsenTo, rng, opts.Cancel)
	tm.Stop()
	coarsest := h
	if len(levels) > 0 {
		coarsest = levels[len(levels)-1].coarse
	}
	tm = opts.Obs.Phase("hypergraph/initial").Start()
	side := initialBisection(coarsest, frac, opts, rng)
	tm.Stop()
	tm = opts.Obs.Phase("hypergraph/refine").Start()
	fmRefine(coarsest, side, frac, opts)
	for i := len(levels) - 1; i >= 0; i-- {
		if par.Canceled(opts.Cancel) {
			tm.Stop()
			return make([]uint8, h.V)
		}
		lv := levels[i]
		fineSide := make([]uint8, lv.fine.V)
		for v := 0; v < lv.fine.V; v++ {
			fineSide[v] = side[lv.cmap[v]]
		}
		side = fineSide
		fmRefine(lv.fine, side, frac, opts)
	}
	tm.Stop()
	if len(side) != h.V {
		// Cancelled before uncoarsening finished: return a well-formed (all
		// zero) assignment; the caller discards it once it observes Cancel.
		return make([]uint8, h.V)
	}
	return side
}

// initialBisection grows side 0 by net-connectivity BFS from random seeds
// and keeps the trial with the fewest cut nets among balanced trials.
// Balance uses fmRefine's caps (sideCaps): an overweight trial can never
// be repaired by FM, which only vetoes moves into a full side and cannot
// drain one that is already over its cap. Growth therefore skips a vertex
// that would push side 0 past its cap (coarse vertices carry aggregated
// weights, so one grab can blow the whole imbalance budget), and a
// balanced trial wins over an unbalanced one regardless of cut. Only when
// every trial is unbalanced does the lowest-cut unbalanced one survive.
func initialBisection(h *Hypergraph, frac float64, opts Options, rng *rand.Rand) []uint8 {
	total := h.TotalVertexWeight()
	target := int(frac * float64(total))
	maxW := sideCaps(h, frac)
	best := make([]uint8, h.V)
	bestCut := -1
	bestBalanced := false
	trial := make([]uint8, h.V)
	for t := 0; t < initTrials; t++ {
		if t > 0 && par.Canceled(opts.Cancel) {
			break // keep the best trial so far; the caller bails out next check
		}
		for i := range trial {
			trial[i] = 1
		}
		visited := make([]bool, h.V)
		netDone := make([]bool, h.Nets)
		start := rng.Intn(h.V)
		queue := []int32{int32(start)}
		visited[start] = true
		w := 0
		for head := 0; head < len(queue) && w < target; head++ {
			v := queue[head]
			if wt := h.VertexWeight(int(v)); w+wt <= maxW[0] {
				trial[v] = 0
				w += wt
			}
			for _, n := range h.NetsOf(int(v)) {
				if netDone[n] {
					continue
				}
				netDone[n] = true
				for _, u := range h.Pins(int(n)) {
					if !visited[u] {
						visited[u] = true
						queue = append(queue, u)
					}
				}
			}
		}
		for v := 0; v < h.V && w < target; v++ {
			if wt := h.VertexWeight(v); trial[v] == 1 && w+wt <= maxW[0] {
				trial[v] = 0
				w += wt
			}
		}
		part := make([]int32, h.V)
		for v, s := range trial {
			part[v] = int32(s)
		}
		cut := CutNet(h, part)
		balanced := w <= maxW[0] && total-w <= maxW[1]
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

// fmRefine runs FM passes on the bisection under the cut-net objective;
// each pass stops early once it stops improving (fmheap.PassLimit).
// The gain of moving v is (nets that become internal) - (nets that become
// cut), maintained from per-net side pin counts.
func fmRefine(h *Hypergraph, side []uint8, frac float64, opts Options) {
	maxW := sideCaps(h, frac)
	st := newFMState(h)
	for pass := 0; pass < refinePasses; pass++ {
		if par.Canceled(opts.Cancel) {
			return
		}
		if !fmPassFast(h, side, maxW, st) {
			break
		}
	}
}

// sideCaps returns the weight caps of sides 0 and 1, (1+ε)·frac·total and
// (1+ε)·(1-frac)·total, each at least 1.
func sideCaps(h *Hypergraph, frac float64) [2]int {
	total := h.TotalVertexWeight()
	return [2]int{
		max(int(float64(total)*frac*(1+imbalance)), 1),
		max(int(float64(total)*(1-frac)*(1+imbalance)), 1),
	}
}

// maxUpdateNetSize bounds the nets whose pins are re-queued after a move.
// A move rarely flips the cut state of a larger net, so its pins keep
// their queued entries at the gain they were queued with.
const maxUpdateNetSize = 128

// fmState carries fmPassFast's buffers across the passes on one
// hypergraph so their backing arrays stay out of the allocator.
type fmState struct {
	count  [][2]int32 // count[n][s]: pins of net n on side s
	tg     []int32    // true gain of every unlocked vertex
	gain   []int32    // gain each vertex was last queued with
	locked []bool
	heap   []fmheap.Entry
	moves  []int32
}

func newFMState(h *Hypergraph) *fmState {
	return &fmState{
		count:  make([][2]int32, h.Nets),
		tg:     make([]int32, h.V),
		gain:   make([]int32, h.V),
		locked: make([]bool, h.V),
	}
}

// netGain is the contribution of one net to the gain of a pin that has
// own pins (itself included) on its side and other pins on the other:
// moving the pin cuts an internal net and uncuts a net it is the last
// pin of on its side. Nets with fewer than two pins contribute nothing.
func netGain(own, other int32) int32 {
	switch {
	case own+other < 2:
		return 0
	case other == 0:
		return -1
	case own == 1:
		return 1
	}
	return 0
}

// fmPassFast is one FM pass with incremental gains. tg[v] holds v's true
// gain throughout: it is built at pass start from the side counts, and
// when v moves, each of its nets changes every other pin's gain by the
// same delta per side, which the pass adds to the unlocked pins. As in
// textbook FM, a pin is re-queued only when the net changed its gain: an
// unlocked pin of a net of up to maxUpdateNetSize pins whose side's delta
// is nonzero gets a new entry at its true gain, one net at a time in v's
// net order, so the heap receives exactly the entries of a pass that
// recomputes each such pin's gain from the counts after every net. That
// recomputing pass is kept in the tests as the oracle
// (TestLeanFMMatchesReference); the packed heap makes the same
// comparisons as its swap-based heap, so the move sequence, and with it
// the bisection, is byte-identical to it. The pass stops once more than
// fmheap.PassLimit(h.V) moves have gone by without improving on the best
// prefix.
// Gains fit int32: |gain| is at most a vertex's net count, and
// coarsening de-duplicates pins.
func fmPassFast(h *Hypergraph, side []uint8, maxW [2]int, st *fmState) bool {
	count, tg, gain, locked := st.count, st.tg, st.gain, st.locked
	for n := 0; n < h.Nets; n++ {
		c := [2]int32{}
		for _, v := range h.Pins(n) {
			c[side[v]]++
		}
		count[n] = c
	}
	w := [2]int{}
	// Only boundary vertices (pins of cut nets) can have positive gain, so
	// the pass queues only them, as PaToH's boundary FM does.
	pq := st.heap[:0]
	for v := 0; v < h.V; v++ {
		s := side[v]
		w[s] += h.VertexWeight(v)
		locked[v] = false
		g, boundary := int32(0), false
		for _, n := range h.NetsOf(v) {
			c := count[n]
			boundary = boundary || (c[0] > 0 && c[1] > 0)
			g += netGain(c[s], c[1-s])
		}
		tg[v] = g
		if boundary {
			gain[v] = g
			pq = append(pq, fmheap.Entry{V: int32(v), Gain: g})
		}
	}
	fmheap.Init(pq)

	moves := st.moves[:0]
	cumGain, bestGain, bestIdx := 0, 0, -1
	limit := fmheap.PassLimit(h.V)
	for len(pq) > 0 {
		var e fmheap.Entry
		e, pq = fmheap.Pop(pq)
		v := int(e.V)
		if locked[v] || e.Gain != gain[v] {
			continue // stale entry
		}
		from := side[v]
		to := 1 - from
		if w[to]+h.VertexWeight(v) > maxW[to] {
			continue // move would violate balance
		}
		locked[v] = true
		w[from] -= h.VertexWeight(v)
		for _, n := range h.NetsOf(v) {
			c := count[n]
			var d [2]int32 // gain change of the other pins, by side
			d[from] = netGain(c[from]-1, c[to]+1) - netGain(c[from], c[to])
			d[to] = netGain(c[to]+1, c[from]-1) - netGain(c[to], c[from])
			c[from]--
			c[to]++
			count[n] = c
			if d == [2]int32{} {
				continue // the move changed no pin's gain through this net
			}
			pins := h.Pins(int(n))
			requeue := len(pins) <= maxUpdateNetSize
			for _, u := range pins {
				if du := d[side[u]]; du != 0 && !locked[u] {
					tg[u] += du
					if requeue {
						gain[u] = tg[u]
						pq = fmheap.Push(pq, fmheap.Entry{V: u, Gain: tg[u]})
					}
				}
			}
		}
		side[v] = to
		w[to] += h.VertexWeight(v)
		cumGain += int(e.Gain)
		moves = append(moves, int32(v))
		if cumGain > bestGain {
			bestGain = cumGain
			bestIdx = len(moves) - 1
		}
		if len(moves)-1-bestIdx > limit {
			break // the last limit moves did not improve on the best prefix
		}
	}

	// Roll back moves past the best prefix.
	for i := len(moves) - 1; i > bestIdx; i-- {
		v := moves[i]
		s := side[v]
		w[s] -= h.VertexWeight(int(v))
		side[v] = 1 - s
		w[side[v]] += h.VertexWeight(int(v))
	}
	st.heap, st.moves = pq, moves
	return bestGain > 0
}
