package reorder

import (
	"math"

	"sparseorder/internal/graph"
	"sparseorder/internal/par"
	"sparseorder/internal/sparse"
)

// amdCheckEvery is the number of pivots between cancellation checks in the
// AMD main loop. It counts pivots, not emitted variables: one pivot emits
// a whole supervariable plus any mass-eliminated pins.
const amdCheckEvery = 256

// approxMinimumDegree computes an approximate-minimum-degree ordering of g
// in the style of Amestoy, Davis and Duff (paper ref. [1]): elimination is
// simulated on a quotient graph whose cliques are stored implicitly as
// elements. Indistinguishable variables are merged into supervariables of
// weight nv, and the external degree of a principal variable i is bounded
// from above, with every set size weighted by nv, by
//
//	d(i) = min(n_left - nv(i), d_prev(i) + |L_p \ i|, |A_i| + |L_p \ i| + Σ_{e∈E_i} |L_e \ L_p|)
//
// where the set differences |L_e \ L_p| for all affected elements are
// obtained in a single counting sweep. Elements absorbed by the pivot and
// elements whose pin set is contained in L_p (aggressive absorption) are
// removed; a pin left adjacent to nothing but the new element is
// eliminated together with the pivot (mass elimination). The returned
// permutation is new-to-old: position k holds the k-th eliminated
// variable, and the members of a supervariable are emitted consecutively.
//
// done is polled every amdCheckEvery pivots (nil never cancels), and a
// cancelled call returns the partial elimination order, which the caller
// must discard.
func approxMinimumDegree(g *graph.Graph, done <-chan struct{}) sparse.Perm {
	n := g.N
	if n == 0 {
		return sparse.Perm{}
	}

	adj := make([][]int32, n)   // A_i: variable-variable adjacency
	elems := make([][]int32, n) // E_i: elements adjacent to variable i
	pins := make([][]int32, n)  // L_e: principal pins of element e (e = pivot id)
	nv := make([]int32, n)      // supervariable weight; 0 once eliminated or merged
	elemW := make([]int32, n)   // Σ nv over L_e; 0 once e is absorbed
	deg := make([]int32, n)     // approximate external degree
	member := make([]int32, n)  // next variable of a supervariable's chain, -1 ends it
	last := make([]int32, n)    // tail of the chain a principal variable heads
	flat := append([]int32(nil), g.Adj...)
	for v := 0; v < n; v++ {
		lo, hi := g.Ptr[v], g.Ptr[v+1]
		adj[v] = flat[lo:hi:hi]
		nv[v] = 1
		deg[v] = int32(hi - lo)
		member[v] = -1
		last[v] = int32(v)
	}
	q := newDegreeLists(n)
	for v := n - 1; v >= 0; v-- {
		q.insert(int32(v), deg[v])
	}

	mark := make([]int32, n) // generation marks over variables
	var gen int32
	w := make([]int32, n) // |L_e \ L_p| from the counting sweep
	wtag := make([]int32, n)
	var wgen int32
	hhead := make([]int32, n) // supervariable hash buckets, -1 when empty
	hnext := make([]int32, n)
	hval := make([]uint32, n)
	for i := range hhead {
		hhead[i] = -1
	}

	order := make(sparse.Perm, 0, n)
	emit := func(i int32) {
		for v := i; v >= 0; v = member[v] {
			order = append(order, int(v))
		}
	}
	nLeft := int32(n)
	var lp []int32

	for pivots := 0; len(order) < n; pivots++ {
		if pivots%amdCheckEvery == 0 && par.Canceled(done) {
			return order
		}
		p := q.popMin()

		// Build L_p = (A_p ∪ ⋃_{e∈E_p} L_e) \ {p}; absorb the elements of p.
		gen = nextGen(gen, mark)
		mark[p] = gen
		lp = lp[:0]
		var lpW int32
		addPin := func(u int32) {
			if nv[u] > 0 && mark[u] != gen {
				mark[u] = gen
				lp = append(lp, u)
				lpW += nv[u]
				q.remove(u, deg[u])
			}
		}
		for _, u := range adj[p] {
			addPin(u)
		}
		for _, e := range elems[p] {
			if elemW[e] == 0 {
				continue
			}
			for _, u := range pins[e] {
				addPin(u)
			}
			elemW[e] = 0
			pins[e] = nil
		}
		emit(p)
		nLeft -= nv[p]
		nv[p] = 0
		adj[p] = nil
		elems[p] = nil
		if len(lp) == 0 {
			continue
		}

		// Counting sweep: after this loop, w[e] = |L_e \ L_p| (weighted)
		// for every alive element e adjacent to a pin of p.
		wgen = nextGen(wgen, wtag)
		for _, i := range lp {
			for _, e := range elems[i] {
				if elemW[e] == 0 {
					continue
				}
				if wtag[e] != wgen {
					wtag[e] = wgen
					w[e] = elemW[e]
				}
				w[e] -= nv[i]
			}
		}

		// Update every pin: prune A_i and E_i, mass-eliminate the pins that
		// only p still touches, append p to the rest and hash them by their
		// adjacency and element ids. deg[i] keeps min(d_prev(i), |A_i| +
		// Σ|L_e \ L_p|); the |L_p \ i| term is added once merges are known.
		for _, i := range lp {
			var ext int32
			var h uint32
			a := adj[i][:0]
			for _, u := range adj[i] {
				if nv[u] > 0 && mark[u] != gen {
					a = append(a, u)
					ext += nv[u]
					h += uint32(u)
				}
			}
			adj[i] = a

			es := elems[i][:0]
			for _, e := range elems[i] {
				if elemW[e] == 0 {
					continue
				}
				if w[e] == 0 {
					// Aggressive absorption: L_e ⊆ L_p, so e is redundant.
					elemW[e] = 0
					pins[e] = nil
					continue
				}
				es = append(es, e)
				ext += w[e]
				h += uint32(e)
			}
			if len(a) == 0 && len(es) == 0 {
				// Mass elimination: i is adjacent to nothing but p.
				emit(i)
				nLeft -= nv[i]
				lpW -= nv[i]
				nv[i] = 0
				adj[i] = nil
				elems[i] = nil
				continue
			}
			elems[i] = append(es, p)
			h += uint32(p)
			if ext < deg[i] {
				deg[i] = ext
			}
			hval[i] = h
			b := h % uint32(n)
			hnext[i] = hhead[b]
			hhead[b] = i
		}

		// Supervariable detection: pins with equal hashes and equal list
		// lengths are compared exactly, marking one pin's adjacency in mark
		// and its elements in wtag, and each indistinguishable pin y is
		// merged into the earlier pin x of its bucket that it matches.
		for _, i := range lp {
			if nv[i] == 0 {
				continue
			}
			b := hval[i] % uint32(n)
			for x := hhead[b]; x >= 0; x = hnext[x] {
				if nv[x] == 0 {
					continue
				}
				marked := false
				for y := hnext[x]; y >= 0; y = hnext[y] {
					if nv[y] == 0 || hval[y] != hval[x] ||
						len(adj[y]) != len(adj[x]) || len(elems[y]) != len(elems[x]) {
						continue
					}
					if !marked {
						gen = nextGen(gen, mark)
						for _, u := range adj[x] {
							mark[u] = gen
						}
						wgen = nextGen(wgen, wtag)
						for _, e := range elems[x] {
							wtag[e] = wgen
						}
						marked = true
					}
					if !sameMarked(adj[y], mark, gen) || !sameMarked(elems[y], wtag, wgen) {
						continue
					}
					nv[x] += nv[y]
					nv[y] = 0
					member[last[x]] = y
					last[x] = last[y]
					adj[y] = nil
					elems[y] = nil
				}
			}
			hhead[b] = -1
		}

		// Finish the degree bound and requeue the surviving principal pins;
		// they become the pin list of the new element p.
		kept := lp[:0]
		for _, i := range lp {
			if nv[i] == 0 {
				continue
			}
			d := deg[i] + lpW - nv[i]
			if bound := nLeft - nv[i]; bound < d {
				d = bound
			}
			deg[i] = d
			q.insert(i, d)
			kept = append(kept, i)
		}
		if len(kept) > 0 {
			pins[p] = append([]int32(nil), kept...)
			elemW[p] = lpW
		}
	}
	return order
}

// sameMarked reports whether every id of list carries the mark gen.
func sameMarked(list, marks []int32, gen int32) bool {
	for _, v := range list {
		if marks[v] != gen {
			return false
		}
	}
	return true
}

// nextGen advances a generation counter over marks, clearing the marks
// instead of letting the counter wrap onto stale values.
func nextGen(gen int32, marks []int32) int32 {
	if gen == math.MaxInt32 {
		clear(marks)
		return 1
	}
	return gen + 1
}

// degreeLists is AMD's priority queue: one doubly linked list of principal
// variables per degree, with insertion at the head and O(1) removal.
type degreeLists struct {
	head       []int32 // head[d]: first variable of degree d, -1 if none
	next, prev []int32
	min        int32 // no list below min is non-empty
}

func newDegreeLists(n int) *degreeLists {
	q := &degreeLists{
		head: make([]int32, n+1),
		next: make([]int32, n),
		prev: make([]int32, n),
	}
	for d := range q.head {
		q.head[d] = -1
	}
	return q
}

func (q *degreeLists) insert(i, d int32) {
	h := q.head[d]
	q.next[i] = h
	q.prev[i] = -1
	if h >= 0 {
		q.prev[h] = i
	}
	q.head[d] = i
	if d < q.min {
		q.min = d
	}
}

func (q *degreeLists) remove(i, d int32) {
	if pv := q.prev[i]; pv >= 0 {
		q.next[pv] = q.next[i]
	} else {
		q.head[d] = q.next[i]
	}
	if nx := q.next[i]; nx >= 0 {
		q.prev[nx] = q.prev[i]
	}
}

// popMin removes and returns a variable of minimum degree; the queue must
// not be empty.
func (q *degreeLists) popMin() int32 {
	for q.head[q.min] < 0 {
		q.min++
	}
	i := q.head[q.min]
	q.remove(i, q.min)
	return i
}
