package hypergraph

import (
	"math/rand"

	"sparseorder/internal/par"
)

// maxMatchNetSize bounds the net sizes considered during coarsening;
// very large nets (dense columns) carry little clustering information and
// would make matching quadratic, so they are skipped, as PaToH does.
const maxMatchNetSize = 64

// coarsenFraction stops coarsening once a matching would keep more than
// this share of a level's vertices. The graph partitioner stops at METIS
// 5's 0.85; HP keeps 0.95 because at 0.85 its cost over the ScaleTest
// collection did not clearly move (median 910 → 889 ms per pass over
// five alternating rounds, 2-vCPU host) while its cut-net geometric mean
// against TestPartitionQualityGate's baseline worsened from 1.0025× to
// 1.0046×.
const coarsenFraction = 0.95

// firstChoiceMatch pairs each vertex with the unmatched vertex it shares
// the most nets with (first-choice/heavy-connectivity matching). Returns
// match[v] (= v when unmatched) and the coarse vertex count.
func firstChoiceMatch(h *Hypergraph, rng *rand.Rand) ([]int32, int) {
	match := make([]int32, h.V)
	for i := range match {
		match[i] = -1
	}
	shared := make([]int32, h.V) // scratch: shared-net counts
	var touched []int32
	order := rng.Perm(h.V)
	nCoarse := 0
	for _, u := range order {
		if match[u] >= 0 {
			continue
		}
		touched = touched[:0]
		for _, n := range h.NetsOf(u) {
			pins := h.Pins(int(n))
			if len(pins) > maxMatchNetSize {
				continue
			}
			for _, v := range pins {
				if int(v) == u || match[v] >= 0 {
					continue
				}
				if shared[v] == 0 {
					touched = append(touched, v)
				}
				shared[v]++
			}
		}
		best := int32(-1)
		bestShared := int32(0)
		for _, v := range touched {
			if shared[v] > bestShared {
				bestShared = shared[v]
				best = v
			}
			shared[v] = 0
		}
		if best >= 0 {
			match[u] = best
			match[best] = int32(u)
		} else {
			match[u] = int32(u)
		}
		nCoarse++
	}
	return match, nCoarse
}

// contract builds the coarse hypergraph for a matching: matched pairs merge,
// net pins are relabelled and de-duplicated, and nets with fewer than two
// pins are dropped (they can never be cut).
func contract(h *Hypergraph, match []int32, nCoarse int) (*Hypergraph, []int32) {
	cmap := make([]int32, h.V)
	for i := range cmap {
		cmap[i] = -1
	}
	next := int32(0)
	for v := 0; v < h.V; v++ {
		if cmap[v] >= 0 {
			continue
		}
		cmap[v] = next
		if m := match[v]; int(m) != v {
			cmap[m] = next
		}
		next++
	}

	coarse := &Hypergraph{V: nCoarse}
	coarse.VWgt = make([]int32, nCoarse)
	for v := 0; v < h.V; v++ {
		coarse.VWgt[cmap[v]] += int32(h.VertexWeight(v))
	}

	seen := make([]int32, nCoarse)
	for i := range seen {
		seen[i] = -1
	}
	var nptr []int
	var npins []int32
	nptr = append(nptr, 0)
	for n := 0; n < h.Nets; n++ {
		start := len(npins)
		for _, v := range h.Pins(n) {
			c := cmap[v]
			if seen[c] != int32(n) {
				seen[c] = int32(n)
				npins = append(npins, c)
			}
		}
		if len(npins)-start < 2 {
			npins = npins[:start] // single-pin net: drop
			continue
		}
		nptr = append(nptr, len(npins))
	}
	coarse.Nets = len(nptr) - 1
	coarse.NPtr = nptr
	coarse.NPins = npins
	coarse.BuildVertexIncidence()
	return coarse, cmap
}

// BuildVertexIncidence fills VPtr/VNets from NPtr/NPins; callers that
// assemble a hypergraph net-first use it to complete the structure.
func (h *Hypergraph) BuildVertexIncidence() {
	h.VPtr = make([]int, h.V+1)
	for _, v := range h.NPins {
		h.VPtr[v+1]++
	}
	for v := 0; v < h.V; v++ {
		h.VPtr[v+1] += h.VPtr[v]
	}
	h.VNets = make([]int32, len(h.NPins))
	next := make([]int, h.V)
	copy(next, h.VPtr[:h.V])
	for n := 0; n < h.Nets; n++ {
		for _, v := range h.Pins(n) {
			h.VNets[next[v]] = int32(n)
			next[v]++
		}
	}
}

type hlevel struct {
	fine   *Hypergraph
	coarse *Hypergraph
	cmap   []int32
}

// coarsen builds the multilevel hierarchy until coarseTo vertices remain or
// matching stagnates. done is polled once per level (nil never cancels).
func coarsen(h *Hypergraph, coarseTo int, rng *rand.Rand, done <-chan struct{}) []hlevel {
	var levels []hlevel
	cur := h
	for cur.V > coarseTo {
		if par.Canceled(done) {
			break // stop building levels; the caller unwinds at its next check
		}
		match, nCoarse := firstChoiceMatch(cur, rng)
		if float64(nCoarse) > coarsenFraction*float64(cur.V) {
			break
		}
		coarse, cmap := contract(cur, match, nCoarse)
		levels = append(levels, hlevel{fine: cur, coarse: coarse, cmap: cmap})
		cur = coarse
	}
	return levels
}
