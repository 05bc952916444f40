// Package fmheap is the max-heap of the Fiduccia-Mattheyses refinement
// passes in internal/partition and internal/hypergraph, and of the greedy
// vertex cover in partition.VertexSeparator. Entries are packed into
// eight bytes (vertex and gain as int32), and sifting moves a hole
// instead of swapping: one write per level instead of three. It makes
// the same strict comparisons, in the same order, as the textbook
// swap-based binary heap (container/heap's algorithm), so for any
// sequence of operations it reaches the same array layout and pops the
// same entries in the same order, ties included. PassLimit is the early
// stop rule both FM passes share.
package fmheap

// Entry is one heap element: a vertex and the gain it was pushed with.
// Callers discard stale entries (whose gain no longer matches their
// bookkeeping) when they pop them.
type Entry struct {
	V    int32
	Gain int32
}

// PassLimit is the number of moves past its best prefix after which an
// FM pass on an n-vertex level stops: max(15, n/10). Like the passes of
// PaToH and METIS, a pass ends once it stops improving instead of moving
// every reachable vertex and rolling most of the moves back. METIS caps
// the run at a constant; a limit that grows with n keeps the cut of
// large meshes closer to the full pass's.
func PassLimit(n int) int {
	return max(15, n/10)
}

// Init orders h into a heap in place.
func Init(h []Entry) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(h, i, h[i])
	}
}

// Push appends e and sifts it up.
func Push(h []Entry, e Entry) []Entry {
	h = append(h, e)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if e.Gain <= h[i].Gain {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = e
	return h
}

// Pop removes and returns the entry with the largest gain; h must be
// non-empty.
func Pop(h []Entry) (Entry, []Entry) {
	e := h[0]
	n := len(h) - 1
	if n > 0 {
		down(h[:n], 0, h[n])
	}
	return e, h[:n]
}

// down sifts x down from slot i, moving strictly greater children up
// into the hole.
func down(h []Entry, i int, x Entry) {
	n := len(h)
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].Gain > h[j1].Gain {
			j = j2
		}
		if h[j].Gain <= x.Gain {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = x
}
