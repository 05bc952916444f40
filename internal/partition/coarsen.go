package partition

import (
	"math/rand"
	"slices"

	"sparseorder/internal/graph"
	"sparseorder/internal/par"
)

// level holds one rung of the multilevel hierarchy: the coarse graph and
// the mapping from each fine vertex to its coarse vertex.
type level struct {
	fine   *graph.Graph
	coarse *graph.Graph
	cmap   []int32
}

// matchVertices computes a matching: vertices are visited in random order
// and each unmatched one is paired with an unmatched neighbour, the one
// joined by the heaviest edge under heavyEdgeMatching, the first one under
// randomMatching (the ablation baseline). It returns match[v] = partner
// (or v itself when unmatched) and the number of coarse vertices.
func matchVertices(g *graph.Graph, rng *rand.Rand, strategy matchingStrategy) ([]int32, int) {
	match := make([]int32, g.N)
	for i := range match {
		match[i] = -1
	}
	order := rng.Perm(g.N)
	nCoarse := 0
	for _, u := range order {
		if match[u] >= 0 {
			continue
		}
		best := int32(-1)
		bestW := -1
		for k := g.Ptr[u]; k < g.Ptr[u+1]; k++ {
			v := g.Adj[k]
			if match[v] >= 0 {
				continue
			}
			if strategy == randomMatching {
				best = v
				break
			}
			if w := g.EdgeWeight(k); w > bestW {
				bestW = w
				best = v
			}
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

// contractRows is the buffer contract assembles coarse adjacency rows in
// before copying each level out at its exact size. coarsen sizes it once
// from the finest level and reuses it for every level: a coarse level has
// at most as many vertices and adjacency entries as its fine level, since
// every fine entry yields at most one coarse entry.
type contractRows struct {
	adj, ewgt []int32
	// where[c] is the index+1 of coarse neighbour c in the row being
	// assembled; marks left by earlier rows of a level point below the
	// current row's start and are ignored, so only a new level clears it.
	where []int32
}

// contract builds the coarse graph defined by the matching. Matched pairs
// merge into one coarse vertex whose weight is the sum of the fine weights;
// parallel coarse edges are combined by summing their weights. Coarse
// vertices are numbered by their lower fine endpoint, and each coarse row
// lists the lower endpoint's edges before the higher one's, so one pass
// over v ascending that skips the higher end of every pair assembles the
// rows in order.
func contract(g *graph.Graph, match []int32, nCoarse int, rows *contractRows) (*graph.Graph, []int32) {
	cmap := make([]int32, g.N)
	next := int32(0)
	for v := 0; v < g.N; v++ {
		if m := int(match[v]); m >= v {
			cmap[v] = next
			cmap[m] = next
			next++
		}
	}

	coarse := &graph.Graph{N: nCoarse, Ptr: make([]int, nCoarse+1), VWgt: make([]int32, nCoarse)}
	adj, ewgt := rows.adj, rows.ewgt
	where := rows.where[:nCoarse]
	clear(where)
	n := 0
	c := int32(0)
	for v := 0; v < g.N; v++ {
		m := int(match[v])
		if m < v {
			continue // the higher end of a pair, already in its partner's row
		}
		members := [2]int{v, m}
		nm := 2
		if m == v {
			nm = 1
		}
		rowStart := n
		for _, x := range members[:nm] {
			coarse.VWgt[c] += int32(g.VertexWeight(x))
			for k := g.Ptr[x]; k < g.Ptr[x+1]; k++ {
				cu := cmap[g.Adj[k]]
				if cu == c {
					continue // interior edge collapses
				}
				w := int32(g.EdgeWeight(k))
				if idx := where[cu]; int(idx) > rowStart {
					ewgt[idx-1] += w
				} else {
					adj[n], ewgt[n] = cu, w
					n++
					where[cu] = int32(n)
				}
			}
		}
		c++
		coarse.Ptr[c] = n
	}
	coarse.Adj = slices.Clone(adj[:n])
	coarse.EWgt = slices.Clone(ewgt[:n])
	return coarse, cmap
}

// coarsen builds the multilevel hierarchy until the graph has at most
// coarseTo vertices or matching stops making progress.
func coarsen(g *graph.Graph, coarseTo int, opts Options, rng *rand.Rand) []level {
	var levels []level
	var rows contractRows
	cur := g
	for cur.N > coarseTo {
		if par.Canceled(opts.Cancel) {
			break // stop building levels; the caller unwinds at its next check
		}
		match, nCoarse := matchVertices(cur, rng, opts.matching)
		if float64(nCoarse) > 0.95*float64(cur.N) {
			break // matching stagnated (e.g. star graphs)
		}
		if levels == nil {
			rows = contractRows{
				adj:   make([]int32, len(g.Adj)),
				ewgt:  make([]int32, len(g.Adj)),
				where: make([]int32, nCoarse),
			}
		}
		coarse, cmap := contract(cur, match, nCoarse, &rows)
		levels = append(levels, level{fine: cur, coarse: coarse, cmap: cmap})
		cur = coarse
	}
	return levels
}
