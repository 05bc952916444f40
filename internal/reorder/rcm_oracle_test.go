package reorder

import (
	"sparseorder/internal/graph"
	"sparseorder/internal/sparse"
)

// cuthillMcKeeSerial is the serial Cuthill-McKee loop, kept as the oracle
// of the component-parallel body in cuthillMcKee: it scans the vertices
// in ascending order and orders each component when it reaches the
// component's smallest unvisited vertex, so components are discovered in
// ascending order of their smallest vertex, which is the concatenation
// order cuthillMcKee must reproduce at every worker count.
func cuthillMcKeeSerial(g *graph.Graph, strategy startStrategy) sparse.Perm {
	perm := make(sparse.Perm, 0, g.N)
	visited := make([]bool, g.N)
	scratch := make([]int32, g.N)
	neigh := make([]int32, 0, g.MaxDegree())
	for s := 0; s < g.N; s++ {
		if !visited[s] {
			perm = cmComponent(g, s, strategy, perm, visited, scratch, neigh, nil)
		}
	}
	return perm
}
