// Package graph provides the undirected adjacency-graph substrate used by
// the traversal- and partitioning-based reorderings: CSR-style adjacency
// storage, breadth-first level structures, connected components, and the
// George-Liu pseudo-peripheral vertex finder.
package graph

import (
	"fmt"

	"sparseorder/internal/par"
)

// Graph is an undirected graph in adjacency-list (CSR) form. Edges appear
// in both endpoints' lists; self-loops are never stored.
type Graph struct {
	N      int
	Ptr    []int
	Adj    []int32
	VWgt   []int32 // optional vertex weights (nil means unit weights)
	EWgt   []int32 // optional edge weights aligned with Adj (nil means unit)
	degMax int
}

// Degree returns the number of neighbours of vertex v.
func (g *Graph) Degree(v int) int { return g.Ptr[v+1] - g.Ptr[v] }

// MaxDegree returns the largest vertex degree. Graphs built by
// FromMatrixSymmetrizedWorkers and InducedSubgraph carry the value
// precomputed; for hand-assembled Graph values the scan result is
// returned without being cached. Either way MaxDegree never mutates the
// graph, so concurrent callers sharing one graph — as the
// component-parallel Cuthill-McKee does — are safe.
func (g *Graph) MaxDegree() int {
	if g.degMax > 0 {
		return g.degMax
	}
	m := 0
	for v := 0; v < g.N; v++ {
		if d := g.Degree(v); d > m {
			m = d
		}
	}
	return m
}

// Neighbors returns the adjacency list of v. The slice aliases graph
// storage and must not be modified.
func (g *Graph) Neighbors(v int) []int32 { return g.Adj[g.Ptr[v]:g.Ptr[v+1]] }

// VertexWeight returns the weight of v (1 if the graph is unweighted).
func (g *Graph) VertexWeight(v int) int {
	if g.VWgt == nil {
		return 1
	}
	return int(g.VWgt[v])
}

// TotalVertexWeight returns the sum of all vertex weights.
func (g *Graph) TotalVertexWeight() int {
	if g.VWgt == nil {
		return g.N
	}
	t := 0
	for _, w := range g.VWgt {
		t += int(w)
	}
	return t
}

// EdgeWeight returns the weight of the edge stored at adjacency slot k.
func (g *Graph) EdgeWeight(k int) int {
	if g.EWgt == nil {
		return 1
	}
	return int(g.EWgt[k])
}

// Validate checks the structural invariants: symmetric adjacency, no
// self-loops, in-range indices.
func (g *Graph) Validate() error {
	if len(g.Ptr) != g.N+1 {
		return fmt.Errorf("graph: Ptr length %d, want %d", len(g.Ptr), g.N+1)
	}
	if g.Ptr[0] != 0 || g.Ptr[g.N] != len(g.Adj) {
		return fmt.Errorf("graph: inconsistent Ptr bounds")
	}
	type edge struct{ u, v int32 }
	count := make(map[edge]int, len(g.Adj))
	for u := 0; u < g.N; u++ {
		for k := g.Ptr[u]; k < g.Ptr[u+1]; k++ {
			v := g.Adj[k]
			if v < 0 || int(v) >= g.N {
				return fmt.Errorf("graph: neighbour %d of %d out of range", v, u)
			}
			if int(v) == u {
				return fmt.Errorf("graph: self-loop at %d", u)
			}
			count[edge{int32(u), v}]++
		}
	}
	for e, c := range count {
		if count[edge{e.v, e.u}] != c {
			return fmt.Errorf("graph: asymmetric adjacency between %d and %d", e.u, e.v)
		}
	}
	return nil
}

// bfsCheckEvery is the number of frontier vertices expanded between
// cancellation checks in bfsFill: cancellation latency is bounded by that
// many adjacency scans, while the per-vertex overhead stays one counter
// increment.
const bfsCheckEvery = 4096

// bfsFill runs a breadth-first search from root and returns its visit
// order, appended to order[:0]. level must read -1 at every vertex of
// root's component; each visited vertex gets its distance from root, so
// the order ascends by level. Every bfsCheckEvery expanded vertices it
// polls done and, once the channel is closed, returns the order so far.
func bfsFill(g *Graph, root int, level, order []int32, done <-chan struct{}) []int32 {
	order = append(order[:0], int32(root))
	level[root] = 0
	sinceCheck := 0
	for head := 0; head < len(order); head++ {
		if sinceCheck++; sinceCheck >= bfsCheckEvery {
			sinceCheck = 0
			if par.Canceled(done) {
				return order
			}
		}
		u := order[head]
		next := level[u] + 1
		for _, v := range g.Neighbors(int(u)) {
			if level[v] < 0 {
				level[v] = next
				order = append(order, v)
			}
		}
	}
	return order
}

// Components returns the connected components of g, each as a list of
// vertices, along with a component id per vertex.
func Components(g *Graph) ([][]int32, []int32) {
	id := make([]int32, g.N)
	for i := range id {
		id[i] = -1
	}
	var comps [][]int32
	queue := make([]int32, 0, g.N)
	for s := 0; s < g.N; s++ {
		if id[s] >= 0 {
			continue
		}
		c := int32(len(comps))
		queue = queue[:0]
		queue = append(queue, int32(s))
		id[s] = c
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range g.Neighbors(int(u)) {
				if id[v] < 0 {
					id[v] = c
					queue = append(queue, v)
				}
			}
		}
		comp := make([]int32, len(queue))
		copy(comp, queue)
		comps = append(comps, comp)
	}
	return comps, id
}

// PseudoPeripheral finds a pseudo-peripheral vertex of the component
// containing start, using the George-Liu algorithm: repeatedly root a BFS
// at a minimum-degree vertex of the deepest last level until the
// eccentricity stops growing. It returns the root of the last BFS that
// deepened the level structure.
//
// level is a g.N-long array that reads -1 at every vertex of start's
// component, and order a buffer that should hold the component (capacity
// g.N suffices); a nil one of either is allocated. The search touches
// only the component's vertices and leaves level reading -1 again, so a
// caller that reuses both across components pays for each component once,
// not for g.N per call. done is polled between (and inside) the BFS rounds
// (nil never cancels); on cancellation the current candidate is returned,
// and callers observing cancellation must discard it.
func PseudoPeripheral(g *Graph, start int, level, order []int32, done <-chan struct{}) int {
	if level == nil {
		level = make([]int32, g.N)
		for i := range level {
			level[i] = -1
		}
	}
	order = bfsFill(g, start, level, order, done)
	root, depth := start, level[order[len(order)-1]]
	for !par.Canceled(done) {
		// The last level is the tail of the order; take its first vertex
		// of minimum degree.
		next := -1
		for i := len(order) - 1; i >= 0 && level[order[i]] == depth; i-- {
			if v := int(order[i]); next < 0 || g.Degree(v) <= g.Degree(next) {
				next = v
			}
		}
		for _, v := range order {
			level[v] = -1
		}
		order = bfsFill(g, next, level, order, done)
		nextDepth := level[order[len(order)-1]]
		if nextDepth <= depth {
			break
		}
		root, depth = next, nextDepth
	}
	for _, v := range order {
		level[v] = -1
	}
	return root
}

// InducedSubgraph returns the subgraph induced by the given vertices:
// subgraph vertex i is verts[i]. Vertex and edge weights are carried over
// when present. A first pass counts the kept adjacency entries so the
// subgraph's arrays are allocated once, at their exact size. local, if
// non-nil, must have length g.N and read zero everywhere; it serves as
// the vertex map and reads zero again on return.
func InducedSubgraph(g *Graph, verts, local []int32) *Graph {
	// local[v] is v's subgraph index plus one; 0 marks a vertex outside.
	if local == nil {
		local = make([]int32, g.N)
	}
	for i, v := range verts {
		local[v] = int32(i) + 1
	}
	sub := &Graph{N: len(verts), Ptr: make([]int, len(verts)+1)}
	for i, v := range verts {
		d := 0
		for _, u := range g.Adj[g.Ptr[v]:g.Ptr[v+1]] {
			if local[u] > 0 {
				d++
			}
		}
		sub.Ptr[i+1] = sub.Ptr[i] + d
		sub.degMax = max(sub.degMax, d)
	}
	sub.Adj = make([]int32, sub.Ptr[len(verts)])
	if g.EWgt != nil {
		sub.EWgt = make([]int32, len(sub.Adj))
	}
	if g.VWgt != nil {
		sub.VWgt = make([]int32, len(verts))
	}
	for i, v := range verts {
		if g.VWgt != nil {
			sub.VWgt[i] = g.VWgt[v]
		}
		j := sub.Ptr[i]
		for k := g.Ptr[v]; k < g.Ptr[v+1]; k++ {
			if lu := local[g.Adj[k]]; lu > 0 {
				sub.Adj[j] = lu - 1
				if g.EWgt != nil {
					sub.EWgt[j] = g.EWgt[k]
				}
				j++
			}
		}
	}
	for _, v := range verts {
		local[v] = 0
	}
	return sub
}
