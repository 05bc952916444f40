package partition

import (
	"math/rand"

	"sparseorder/internal/fmheap"
	"sparseorder/internal/graph"
)

// VertexSeparator computes a vertex separator of g from an edge-cut
// bisection: the boundary of the cut forms a bipartite graph, and a small
// vertex cover of that bipartite graph separates the remaining vertices.
// The cover is found greedily, repeatedly taking the boundary vertex
// incident to the most uncovered cut edges. It returns per-vertex labels:
// 0 and 1 for the two sides, 2 for the separator. The bisection and the
// cover run in sc's buffers. g, or the graph it was induced from, must
// pass CheckEdgeWeights.
func VertexSeparator(g *graph.Graph, opts Options, rng *rand.Rand, sc *Scratch) []uint8 {
	if g.N == 0 {
		return nil
	}
	if g.N == 1 {
		return []uint8{0}
	}
	sc = sc.forGraph(g.N)
	side := bisect(g, 0.5, opts, rng, sc)
	label := make([]uint8, g.N)
	copy(label, side)

	// Count uncovered cut edges per vertex.
	cutDeg := grow(sc.cutDeg, g.N)
	sc.cutDeg = cutDeg
	for u := 0; u < g.N; u++ {
		cutDeg[u] = 0
		for k := g.Ptr[u]; k < g.Ptr[u+1]; k++ {
			if side[g.Adj[k]] != side[u] {
				cutDeg[u]++
			}
		}
	}
	h := sc.heap[:0]
	for v := 0; v < g.N; v++ {
		if cutDeg[v] > 0 {
			h = append(h, fmheap.Entry{V: int32(v), Gain: int32(cutDeg[v])})
		}
	}
	fmheap.Init(h)
	for len(h) > 0 {
		var e fmheap.Entry
		e, h = fmheap.Pop(h)
		v := int(e.V)
		if label[v] == 2 || int(e.Gain) != cutDeg[v] || cutDeg[v] == 0 {
			continue
		}
		label[v] = 2
		for k := g.Ptr[v]; k < g.Ptr[v+1]; k++ {
			u := g.Adj[k]
			if label[u] != 2 && side[u] != side[v] {
				cutDeg[u]--
				if cutDeg[u] > 0 {
					h = fmheap.Push(h, fmheap.Entry{V: u, Gain: int32(cutDeg[u])})
				}
			}
		}
		cutDeg[v] = 0
	}
	sc.heap = h
	return label
}
