package reorder

import (
	"slices"

	"sparseorder/internal/graph"
	"sparseorder/internal/sparse"
)

// rootRule picks the Cuthill-McKee root of the component whose smallest
// vertex is s. Production uses pseudoPeripheralRoot; minDegreeRoot is the
// ablation's alternative.
type rootRule func(g *graph.Graph, s int) int

func pseudoPeripheralRoot(g *graph.Graph, s int) int {
	return graph.PseudoPeripheral(g, s, nil, nil, nil)
}

// minDegreeRoot returns the first vertex of minimum degree in breadth-first
// order from s.
func minDegreeRoot(g *graph.Graph, s int) int {
	seen := make([]bool, g.N)
	seen[s] = true
	root, queue := s, []int32{int32(s)}
	for head := 0; head < len(queue); head++ {
		v := int(queue[head])
		if g.Degree(v) < g.Degree(root) {
			root = v
		}
		for _, u := range g.Neighbors(v) {
			if !seen[u] {
				seen[u] = true
				queue = append(queue, u)
			}
		}
	}
	return root
}

// cuthillMcKeeSerial is the serial Cuthill-McKee loop, kept as the oracle
// of the component-parallel body in cuthillMcKee: it scans the vertices
// in ascending order and orders each component, from the root the rule
// picks, when it reaches the component's smallest unvisited vertex, so
// components are discovered in ascending order of their smallest vertex,
// which is the concatenation order cuthillMcKee must reproduce at every
// worker count.
func cuthillMcKeeSerial(g *graph.Graph, root rootRule) sparse.Perm {
	perm := make(sparse.Perm, 0, g.N)
	visited := make([]bool, g.N)
	neigh := make([]int32, 0, g.MaxDegree())
	for s := 0; s < g.N; s++ {
		if !visited[s] {
			perm = cmComponent(g, root(g, s), perm, visited, neigh, nil)
		}
	}
	return perm
}

// reverseCuthillMcKeeSerial is cuthillMcKeeSerial reversed: RCM under the
// given root rule.
func reverseCuthillMcKeeSerial(g *graph.Graph, root rootRule) sparse.Perm {
	p := cuthillMcKeeSerial(g, root)
	slices.Reverse(p)
	return p
}
