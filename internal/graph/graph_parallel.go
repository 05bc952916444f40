package graph

import (
	"fmt"

	"sparseorder/internal/par"
	"sparseorder/internal/sparse"
)

// FromMatrixSymmetrizedWorkers builds the undirected graph of a square
// sparse matrix: one vertex per row/column and an edge {i, j} for every
// off-diagonal nonzero of A + Aᵀ, which is A itself when the pattern is
// structurally symmetric. Instead of materialising A+Aᵀ it builds a
// pattern-only transpose once and forms each vertex's adjacency as the
// sorted union of row i of A and row i of Aᵀ minus the diagonal. The
// counting pass records which rows equal their transpose row (every row
// of a structurally symmetric pattern), and the fill pass copies those
// instead of merging. Both passes run over row ranges split across the
// workers (0 = GOMAXPROCS; 1 runs one range inline on the caller's
// goroutine). The adjacency is byte-identical at every worker count
// because each vertex's slot range is fixed by the prefix sum before any
// list is written; the tests check it against a Symmetrize-then-drop-the-
// diagonal oracle in graph_oracle_test.go.
func FromMatrixSymmetrizedWorkers(a *sparse.CSR, workers int) (*Graph, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("graph: matrix must be square, got %dx%d", a.Rows, a.Cols)
	}
	w := par.Resolve(workers)
	t := patternTranspose(a)
	g := &Graph{N: a.Rows, Ptr: make([]int, a.Rows+1)}
	same := make([]bool, a.Rows)
	chunkMax := make([]int, par.Chunks(a.Rows, w))
	par.Ranges(a.Rows, w, func(chunk, lo, hi int) {
		m := 0
		for i := lo; i < hi; i++ {
			n, eq := countRow(a, t, i)
			g.Ptr[i+1] = n
			same[i] = eq
			if n > m {
				m = n
			}
		}
		chunkMax[chunk] = m
	})
	for i := 0; i < a.Rows; i++ {
		g.Ptr[i+1] += g.Ptr[i]
	}
	for _, m := range chunkMax {
		if m > g.degMax {
			g.degMax = m
		}
	}
	g.Adj = make([]int32, g.Ptr[a.Rows])
	par.Ranges(a.Rows, w, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			dst := g.Adj[g.Ptr[i]:g.Ptr[i+1]]
			if !same[i] {
				mergeRow(a, t, i, dst)
				continue
			}
			n := 0
			for _, c := range a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]] {
				if int(c) != i {
					dst[n] = c
					n++
				}
			}
		}
	})
	return g, nil
}

// patternTranspose returns the pattern of Aᵀ (RowPtr and ColIdx only).
// The graph build never reads values, and skipping them removes a third
// of the transpose's scattered memory traffic.
func patternTranspose(a *sparse.CSR) *sparse.CSR {
	t := &sparse.CSR{
		Rows:   a.Cols,
		Cols:   a.Rows,
		RowPtr: make([]int, a.Cols+1),
		ColIdx: make([]int32, len(a.ColIdx)),
	}
	for _, j := range a.ColIdx {
		t.RowPtr[j+1]++
	}
	for j := 0; j < a.Cols; j++ {
		t.RowPtr[j+1] += t.RowPtr[j]
	}
	next := make([]int, a.Cols)
	copy(next, t.RowPtr[:a.Cols])
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColIdx[k]
			t.ColIdx[next[j]] = int32(i)
			next[j]++
		}
	}
	return t
}

// countRow returns the adjacency size of vertex i — the union of row i of
// a and row i of t minus the diagonal — and whether the two rows are
// equal, in which case the adjacency is row i of a minus the diagonal.
func countRow(a, t *sparse.CSR, i int) (int, bool) {
	ra := a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]]
	rb := t.ColIdx[t.RowPtr[i]:t.RowPtr[i+1]]
	if len(ra) == len(rb) {
		di, diag, k := int32(i), 0, 0
		for ; k < len(ra) && ra[k] == rb[k]; k++ {
			if ra[k] == di {
				diag = 1
			}
		}
		if k == len(ra) {
			return len(ra) - diag, true
		}
	}
	return mergeRow(a, t, i, nil), false
}

// mergeRow computes the sorted union of row i of a and row i of t with the
// diagonal entry removed. With dst nil it only counts; otherwise it writes
// the union into dst and returns the count. Both inputs have strictly
// ascending columns per the CSR invariant.
func mergeRow(a, t *sparse.CSR, i int, dst []int32) int {
	ka, kaEnd := a.RowPtr[i], a.RowPtr[i+1]
	kb, kbEnd := t.RowPtr[i], t.RowPtr[i+1]
	n := 0
	di := int32(i)
	for ka < kaEnd || kb < kbEnd {
		var c int32
		switch {
		case kb >= kbEnd || (ka < kaEnd && a.ColIdx[ka] < t.ColIdx[kb]):
			c = a.ColIdx[ka]
			ka++
		case ka >= kaEnd || t.ColIdx[kb] < a.ColIdx[ka]:
			c = t.ColIdx[kb]
			kb++
		default:
			c = a.ColIdx[ka]
			ka++
			kb++
		}
		if c == di {
			continue
		}
		if dst != nil {
			dst[n] = c
		}
		n++
	}
	return n
}
