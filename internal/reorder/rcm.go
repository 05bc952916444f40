package reorder

import (
	"sort"
	"sync"
	"sync/atomic"

	"sparseorder/internal/graph"
	"sparseorder/internal/par"
	"sparseorder/internal/sparse"
)

// startStrategy selects how Cuthill-McKee picks the root vertex of each
// connected component. The George-Liu pseudo-peripheral finder is the
// standard choice (and the one the study's implementation uses); the
// minimum-degree start is kept as an ablation (see DESIGN.md).
type startStrategy int

// Start strategies for Cuthill-McKee.
const (
	pseudoPeripheralStart startStrategy = iota
	minDegreeStart
)

// cmCheckEvery is the number of dequeued vertices between cancellation
// checks in the Cuthill-McKee BFS loop.
const cmCheckEvery = 1024

// cmComponent appends the Cuthill-McKee ordering of the component whose
// smallest-index vertex is s to perm. It touches visited only at the
// component's own vertices, so concurrent calls on distinct components
// sharing one visited slice are safe; scratch (length g.N) and neigh are
// per-caller scratch space. done is polled every cmCheckEvery dequeues
// (nil never cancels); a cancelled call returns a partial ordering that
// the caller must discard.
func cmComponent(g *graph.Graph, s int, strategy startStrategy, perm sparse.Perm, visited []bool, scratch, neigh []int32, done <-chan struct{}) sparse.Perm {
	start := s
	if strategy == pseudoPeripheralStart {
		start = graph.PseudoPeripheral(g, s, scratch, done)
	} else {
		// Minimum-degree vertex of the component containing s.
		r := graph.BFS(g, s, scratch, done)
		for _, v := range r.Order {
			if g.Degree(int(v)) < g.Degree(start) {
				start = int(v)
			}
		}
	}
	if par.Canceled(done) {
		return perm
	}
	compStart := len(perm)
	perm = append(perm, start)
	visited[start] = true
	for head := compStart; head < len(perm); head++ {
		if (head-compStart)%cmCheckEvery == cmCheckEvery-1 && par.Canceled(done) {
			return perm
		}
		v := perm[head]
		neigh = neigh[:0]
		for _, u := range g.Neighbors(v) {
			if !visited[u] {
				visited[u] = true
				neigh = append(neigh, u)
			}
		}
		sort.Slice(neigh, func(i, j int) bool {
			di, dj := g.Degree(int(neigh[i])), g.Degree(int(neigh[j]))
			if di != dj {
				return di < dj
			}
			return neigh[i] < neigh[j]
		})
		for _, u := range neigh {
			perm = append(perm, int(u))
		}
	}
	return perm
}

// cuthillMcKee computes the Cuthill-McKee ordering of g: each connected
// component is traversed breadth-first from its root (a pseudo-peripheral
// vertex by default), appending unvisited neighbours in ascending-degree
// order. The returned permutation is new-to-old.
//
// Components are independent and are ordered concurrently by up to
// workers goroutines (0 = GOMAXPROCS); the calling goroutine is one of
// them, so at 1 worker the body runs inline with no goroutine. The
// per-component orderings are concatenated in ascending order of each
// component's smallest vertex — the order a serial scan over the vertices
// discovers them — so the permutation is byte-identical at every worker
// count. done is polled inside every component traversal (nil never
// cancels), so a wedged ordering stops within cmCheckEvery dequeues of a
// cancellation; a cancelled call returns a partial ordering that the
// caller must discard.
func cuthillMcKee(g *graph.Graph, strategy startStrategy, workers int, done <-chan struct{}) sparse.Perm {
	if g.N == 0 {
		return sparse.Perm{}
	}
	// Order the component of vertex 0 first — for a connected graph (the
	// common case) this is the entire ordering, with no component scan.
	visited := make([]bool, g.N)
	scratch := make([]int32, g.N)
	neigh := make([]int32, 0, g.MaxDegree())
	perm := cmComponent(g, 0, strategy, make(sparse.Perm, 0, g.N), visited, scratch, neigh, done)
	if len(perm) == g.N || par.Canceled(done) {
		return perm
	}
	// Components lists the components in ascending order of their
	// smallest vertex, with the already-ordered component of vertex 0
	// first. visited is shared: each component writes only its own
	// vertices, so the workers touch disjoint index sets. scratch and
	// neigh are per worker; BFS level arrays must be g.N long.
	allComps, _ := graph.Components(g)
	comps := allComps[1:]
	parts := make([]sparse.Perm, len(comps))
	var next atomic.Int64
	work := func(scratch, neigh []int32) {
		for {
			ci := int(next.Add(1) - 1)
			if ci >= len(comps) || par.Canceled(done) {
				return
			}
			comp := comps[ci]
			parts[ci] = cmComponent(g, int(comp[0]), strategy, make(sparse.Perm, 0, len(comp)), visited, scratch, neigh, done)
		}
	}
	w := min(par.Resolve(workers), len(comps))
	var wg sync.WaitGroup
	for i := 1; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(make([]int32, g.N), make([]int32, 0, g.MaxDegree()))
		}()
	}
	work(scratch, neigh)
	wg.Wait()
	for _, part := range parts {
		perm = append(perm, part...)
	}
	return perm
}

// reverseCuthillMcKee returns the Cuthill-McKee ordering reversed, the
// variant preferred in practice (paper §2.1.1), and the RCM ordering of
// the study.
func reverseCuthillMcKee(g *graph.Graph, strategy startStrategy, workers int, done <-chan struct{}) sparse.Perm {
	p := cuthillMcKee(g, strategy, workers, done)
	for i, j := 0, len(p)-1; i < j; i, j = i+1, j-1 {
		p[i], p[j] = p[j], p[i]
	}
	return p
}
