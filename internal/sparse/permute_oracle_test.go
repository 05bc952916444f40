package sparse

import "fmt"

// This file keeps sequential row-by-row permutations as the oracles of
// PermuteSymmetricWorkers and PermuteRowsWorkers, which the tests compare
// against them at every worker count, 1 included.

// permuteSymmetricOracle returns P·A·Pᵀ: row p[i] of a, its columns
// relabelled by p's inverse, becomes row i, re-sorted by column.
func permuteSymmetricOracle(a *CSR, p Perm) (*CSR, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("sparse: symmetric permutation of non-square %dx%d matrix", a.Rows, a.Cols)
	}
	if len(p) != a.Rows {
		return nil, fmt.Errorf("sparse: permutation length %d, want %d", len(p), a.Rows)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	inv := p.Inverse()
	b := &CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: make([]int, a.Rows+1)}
	for newI, oldI := range p {
		lo := len(b.ColIdx)
		for k := a.RowPtr[oldI]; k < a.RowPtr[oldI+1]; k++ {
			b.ColIdx = append(b.ColIdx, int32(inv[a.ColIdx[k]]))
			b.Val = append(b.Val, a.Val[k])
		}
		sortColVal(b.ColIdx[lo:], b.Val[lo:])
		b.RowPtr[newI+1] = len(b.ColIdx)
	}
	return b, nil
}

// permuteRowsOracle returns P·A: row p[i] of a becomes row i.
func permuteRowsOracle(a *CSR, p Perm) (*CSR, error) {
	if len(p) != a.Rows {
		return nil, fmt.Errorf("sparse: permutation length %d, want %d rows", len(p), a.Rows)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	b := &CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: make([]int, a.Rows+1)}
	for newI, oldI := range p {
		b.ColIdx = append(b.ColIdx, a.ColIdx[a.RowPtr[oldI]:a.RowPtr[oldI+1]]...)
		b.Val = append(b.Val, a.Val[a.RowPtr[oldI]:a.RowPtr[oldI+1]]...)
		b.RowPtr[newI+1] = len(b.ColIdx)
	}
	return b, nil
}
