package partition

import (
	"math/rand"

	"sparseorder/internal/graph"
	"sparseorder/internal/par"
	"sparseorder/internal/prng"
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
// (or v itself when unmatched) and the number of coarse vertices. The
// visit order makes exactly rng.Perm's draws; the order and the matching
// live in sc until its next matching.
func matchVertices(g *graph.Graph, rng *rand.Rand, strategy matchingStrategy, sc *Scratch) ([]int32, int) {
	match := grow(sc.match, g.N)
	for i := range match {
		match[i] = -1
	}
	order := grow(sc.order, g.N)
	prng.Perm32(rng, order)
	sc.match, sc.order = match, order
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
// before copying each level out at its exact size. coarsen sizes it from
// the finest level and reuses it for every level: a coarse level has at
// most as many vertices and adjacency entries as its fine level, since
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
// rows in order. The rows are assembled in rows; the coarse graph's
// arrays and cmap are left in lb.
func contract(g *graph.Graph, match []int32, nCoarse int, rows *contractRows, lb *levelBuf) (*graph.Graph, []int32) {
	lb.cmap = grow(lb.cmap, g.N)
	lb.ptr = grow(lb.ptr, nCoarse+1)
	lb.vwgt = grow(lb.vwgt, nCoarse)
	cmap := lb.cmap
	next := int32(0)
	for v := 0; v < g.N; v++ {
		if m := int(match[v]); m >= v {
			cmap[v] = next
			cmap[m] = next
			next++
		}
	}

	coarse := &graph.Graph{N: nCoarse, Ptr: lb.ptr, VWgt: lb.vwgt}
	coarse.Ptr[0] = 0
	clear(coarse.VWgt)
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
	lb.adj, lb.ewgt = grow(lb.adj, n), grow(lb.ewgt, n)
	copy(lb.adj, adj[:n])
	copy(lb.ewgt, ewgt[:n])
	coarse.Adj, coarse.EWgt = lb.adj, lb.ewgt
	return coarse, cmap
}

// coarsen builds the multilevel hierarchy until the graph has at most
// coarseTo vertices or matching stagnates: a matching that would keep
// more than coarsenFraction of the vertices is dropped, not contracted.
// The levels and their graphs live in sc until its next bisection.
func coarsen(g *graph.Graph, coarseTo int, opts Options, rng *rand.Rand, sc *Scratch) []level {
	levels := sc.levels[:0]
	cur := g
	for cur.N > coarseTo {
		if par.Canceled(opts.Cancel) {
			break // stop building levels; the caller unwinds at its next check
		}
		match, nCoarse := matchVertices(cur, rng, opts.matching, sc)
		if float64(nCoarse) > coarsenFraction*float64(cur.N) {
			break // matching stagnated (e.g. star graphs, power-law hubs)
		}
		if len(levels) == 0 {
			sc.rows.adj = grow(sc.rows.adj, len(g.Adj))
			sc.rows.ewgt = grow(sc.rows.ewgt, len(g.Adj))
			sc.rows.where = grow(sc.rows.where, nCoarse)
		}
		if len(levels) == len(sc.levelBufs) {
			sc.levelBufs = append(sc.levelBufs, levelBuf{})
		}
		coarse, cmap := contract(cur, match, nCoarse, &sc.rows, &sc.levelBufs[len(levels)])
		levels = append(levels, level{fine: cur, coarse: coarse, cmap: cmap})
		cur = coarse
	}
	sc.levels = levels
	return levels
}
