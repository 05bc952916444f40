package partition

import (
	"sparseorder/internal/fmheap"
	"sparseorder/internal/graph"
)

// Scratch holds the working buffers of a recursion branch's bisections.
// Every bisection the branch runs reuses them, growing each to the largest
// graph it has seen, so a branch allocates its coarsening hierarchy,
// initial-bisection trials and FM state once instead of once per
// bisection; a graph above scratchMaxVerts vertices gets buffers of its
// own instead. A Scratch serves one call at a time: a branch handed to
// another goroutine takes its own. Slices a call returns from it (Bisect's
// sides) stay valid only until the Scratch's next use. The zero value is
// ready to use.
type Scratch struct {
	// Coarsening: the matching, its visit order, the contraction rows,
	// and the arrays of every level.
	match, order []int32
	rows         contractRows
	levels       []level
	levelBufs    []levelBuf
	// Initial bisection.
	best, trial []uint8
	visited     []bool
	queue       []int32
	bfs         []int32 // reads -1 between calls; see bfsLevels
	// Refinement, and the two buffers uncoarsening projects sides into.
	fm    fmBuffers
	sides [2][]uint8
	// Vertex separator.
	cutDeg []int
	heap   []fmheap.Entry
	// local is InducedSubgraph's vertex map; it reads zero between calls.
	local []int32
}

// scratchMaxVerts is the largest graph whose buffers a Scratch keeps. A
// bisection or induced subgraph of a bigger graph gets buffers that die
// with it, which its own work dwarfs, so a Scratch never holds more than
// a small graph's buffers while the recursion below it runs.
const scratchMaxVerts = 4096

// forGraph returns the Scratch a call on a graph of n vertices runs in:
// sc itself, or a fresh one above scratchMaxVerts.
func (sc *Scratch) forGraph(n int) *Scratch {
	if n > scratchMaxVerts {
		return new(Scratch)
	}
	return sc
}

// Induce returns the subgraph of g induced by verts (see
// graph.InducedSubgraph), using sc's vertex map.
func (sc *Scratch) Induce(g *graph.Graph, verts []int32) *graph.Graph {
	if g.N > scratchMaxVerts {
		return graph.InducedSubgraph(g, verts, nil)
	}
	if len(sc.local) < g.N {
		sc.local = make([]int32, g.N)
	}
	return graph.InducedSubgraph(g, verts, sc.local[:g.N])
}

// bfsLevels returns the first n entries of sc.bfs, the level array
// graph.PseudoPeripheral takes. They read -1, and the search leaves them
// reading -1, so no call refills them.
func (sc *Scratch) bfsLevels(n int) []int32 {
	if len(sc.bfs) < n {
		sc.bfs = make([]int32, n)
		for i := range sc.bfs {
			sc.bfs[i] = -1
		}
	}
	return sc.bfs[:n]
}

// grow returns buf resliced to length n, reallocated when its capacity is
// short. The contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// levelBuf holds the arrays of one coarsening level: level i of every
// bisection in a Scratch is built in the i-th levelBuf, which grows to
// the largest such level.
type levelBuf struct {
	ptr                   []int
	cmap, vwgt, adj, ewgt []int32
}
