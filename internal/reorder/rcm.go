package reorder

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

	"sparseorder/internal/graph"
	"sparseorder/internal/par"
	"sparseorder/internal/sparse"
)

// cmCheckEvery is the number of dequeued vertices between cancellation
// checks in the Cuthill-McKee BFS loop.
const cmCheckEvery = 1024

// cmComponent appends the Cuthill-McKee ordering of root's component,
// traversed breadth-first from root, to perm. It touches visited only at
// the component's own vertices, so concurrent calls on distinct
// components sharing one visited slice are safe; neigh is per-caller
// scratch space. done is polled every cmCheckEvery dequeues (nil never
// cancels); a cancelled call returns a partial ordering that the caller
// must discard.
func cmComponent(g *graph.Graph, root int, perm sparse.Perm, visited []bool, neigh []int32, done <-chan struct{}) sparse.Perm {
	compStart := len(perm)
	perm = append(perm, root)
	visited[root] = true
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
		slices.SortFunc(neigh, func(a, b int32) int {
			return cmp.Or(cmp.Compare(g.Degree(int(a)), g.Degree(int(b))), cmp.Compare(a, b))
		})
		for _, u := range neigh {
			perm = append(perm, int(u))
		}
	}
	return perm
}

// cmScratch is one goroutine's buffers for ordering components: the root
// search's level array, which reads -1 between components, and its visit
// order, both sized for the whole graph once, and the neighbour sort
// buffer. Reusing them makes k components cost their own sizes, not k·N.
type cmScratch struct{ level, order, neigh []int32 }

func newCMScratch(g *graph.Graph) *cmScratch {
	level := make([]int32, g.N)
	for i := range level {
		level[i] = -1
	}
	return &cmScratch{level: level, order: make([]int32, 0, g.N), neigh: make([]int32, 0, g.MaxDegree())}
}

// component appends the Cuthill-McKee ordering of the component whose
// smallest vertex is s, rooted at a pseudo-peripheral vertex, to perm.
func (sc *cmScratch) component(g *graph.Graph, s int, perm sparse.Perm, visited []bool, done <-chan struct{}) sparse.Perm {
	root := graph.PseudoPeripheral(g, s, sc.level, sc.order, done)
	if par.Canceled(done) {
		return perm
	}
	return cmComponent(g, root, perm, visited, sc.neigh, done)
}

// cuthillMcKee computes the Cuthill-McKee ordering of g: each connected
// component is traversed breadth-first from a pseudo-peripheral root,
// appending unvisited neighbours in ascending-degree order. The returned
// permutation is new-to-old.
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
func cuthillMcKee(g *graph.Graph, workers int, done <-chan struct{}) sparse.Perm {
	if g.N == 0 {
		return sparse.Perm{}
	}
	// Order the component of vertex 0 first — for a connected graph (the
	// common case) this is the entire ordering, with no component scan.
	visited := make([]bool, g.N)
	sc := newCMScratch(g)
	perm := sc.component(g, 0, make(sparse.Perm, 0, g.N), visited, done)
	if len(perm) == g.N || par.Canceled(done) {
		return perm
	}
	// Components lists the components in ascending order of their
	// smallest vertex, with the already-ordered component of vertex 0
	// first. visited is shared: each component writes only its own
	// vertices, so the workers touch disjoint index sets. Each worker has
	// its own cmScratch.
	allComps, _ := graph.Components(g)
	comps := allComps[1:]
	parts := make([]sparse.Perm, len(comps))
	var next atomic.Int64
	work := func(sc *cmScratch) {
		for {
			ci := int(next.Add(1) - 1)
			if ci >= len(comps) || par.Canceled(done) {
				return
			}
			comp := comps[ci]
			parts[ci] = sc.component(g, int(comp[0]), make(sparse.Perm, 0, len(comp)), visited, done)
		}
	}
	w := min(par.Resolve(workers), len(comps))
	var wg sync.WaitGroup
	for i := 1; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(newCMScratch(g))
		}()
	}
	work(sc)
	wg.Wait()
	for _, part := range parts {
		perm = append(perm, part...)
	}
	return perm
}

// reverseCuthillMcKee returns the Cuthill-McKee ordering reversed, the
// variant preferred in practice (paper §2.1.1), and the RCM ordering of
// the study.
func reverseCuthillMcKee(g *graph.Graph, workers int, done <-chan struct{}) sparse.Perm {
	p := cuthillMcKee(g, workers, done)
	slices.Reverse(p)
	return p
}
