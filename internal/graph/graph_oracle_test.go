package graph

import (
	"fmt"

	"sparseorder/internal/sparse"
)

// This file keeps the materialise-then-drop-the-diagonal graph build as
// the oracle of FromMatrixSymmetrizedWorkers, which the tests compare
// against it at every worker count, 1 included.

// fromMatrixOracle builds the graph of a square, structurally symmetric
// matrix: an edge {i, j} for every off-diagonal nonzero.
func fromMatrixOracle(a *sparse.CSR) (*Graph, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("graph: matrix must be square, got %dx%d", a.Rows, a.Cols)
	}
	g := &Graph{N: a.Rows, Ptr: make([]int, a.Rows+1), Adj: []int32{}}
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if j := a.ColIdx[k]; int(j) != i {
				g.Adj = append(g.Adj, j)
			}
		}
		g.Ptr[i+1] = len(g.Adj)
		if d := g.Ptr[i+1] - g.Ptr[i]; d > g.degMax {
			g.degMax = d
		}
	}
	return g, nil
}

// fromMatrixSymmetrizedOracle builds the graph of A + Aᵀ when the pattern
// of a is unsymmetric, and of A directly otherwise.
func fromMatrixSymmetrizedOracle(a *sparse.CSR) (*Graph, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("graph: matrix must be square, got %dx%d", a.Rows, a.Cols)
	}
	if !a.IsStructurallySymmetric() {
		s, err := sparse.Symmetrize(a)
		if err != nil {
			return nil, err
		}
		a = s
	}
	return fromMatrixOracle(a)
}
