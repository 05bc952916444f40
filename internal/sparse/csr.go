// Package sparse provides the sparse-matrix substrate for the reordering
// study: COO and CSR storage, Matrix Market I/O, symmetrization, and row,
// column and symmetric permutations.
//
// Following the paper's setup, CSR column offsets are stored as 32-bit
// integers and nonzero values as float64.
package sparse

import (
	"fmt"
)

// CSR is a sparse matrix in compressed sparse row format. Nonzeros of each
// row are stored contiguously with strictly ascending column indices.
//
// RowPtr has length Rows+1; the nonzeros of row i occupy
// ColIdx[RowPtr[i]:RowPtr[i+1]] and Val[RowPtr[i]:RowPtr[i+1]].
type CSR struct {
	Rows   int
	Cols   int
	RowPtr []int
	ColIdx []int32
	Val    []float64
}

// NNZ returns the number of stored nonzeros.
func (a *CSR) NNZ() int { return len(a.ColIdx) }

// RowNNZ returns the number of stored nonzeros in row i.
func (a *CSR) RowNNZ(i int) int { return a.RowPtr[i+1] - a.RowPtr[i] }

// Row returns the column indices and values of row i. The returned slices
// alias the matrix storage and must not be modified.
func (a *CSR) Row(i int) ([]int32, []float64) {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	return a.ColIdx[lo:hi], a.Val[lo:hi]
}

// Clone returns a deep copy of the matrix.
func (a *CSR) Clone() *CSR {
	b := &CSR{
		Rows:   a.Rows,
		Cols:   a.Cols,
		RowPtr: make([]int, len(a.RowPtr)),
		ColIdx: make([]int32, len(a.ColIdx)),
		Val:    make([]float64, len(a.Val)),
	}
	copy(b.RowPtr, a.RowPtr)
	copy(b.ColIdx, a.ColIdx)
	copy(b.Val, a.Val)
	return b
}

// Validate checks the structural invariants of the CSR representation:
// monotone row pointers, in-range and strictly ascending column indices,
// and consistent slice lengths.
func (a *CSR) Validate() error {
	if a.Rows < 0 || a.Cols < 0 {
		return fmt.Errorf("sparse: negative dimensions %dx%d", a.Rows, a.Cols)
	}
	if len(a.RowPtr) != a.Rows+1 {
		return fmt.Errorf("sparse: RowPtr length %d, want %d", len(a.RowPtr), a.Rows+1)
	}
	if len(a.ColIdx) != len(a.Val) {
		return fmt.Errorf("sparse: ColIdx length %d != Val length %d", len(a.ColIdx), len(a.Val))
	}
	if a.RowPtr[0] != 0 {
		return fmt.Errorf("sparse: RowPtr[0] = %d, want 0", a.RowPtr[0])
	}
	if a.RowPtr[a.Rows] != len(a.ColIdx) {
		return fmt.Errorf("sparse: RowPtr[%d] = %d, want %d", a.Rows, a.RowPtr[a.Rows], len(a.ColIdx))
	}
	for i := 0; i < a.Rows; i++ {
		if a.RowPtr[i] > a.RowPtr[i+1] {
			return fmt.Errorf("sparse: RowPtr not monotone at row %d", i)
		}
		prev := int32(-1)
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColIdx[k]
			if j < 0 || int(j) >= a.Cols {
				return fmt.Errorf("sparse: column %d out of range in row %d", j, i)
			}
			if j <= prev {
				return fmt.Errorf("sparse: columns not strictly ascending in row %d", i)
			}
			prev = j
		}
	}
	return nil
}

// Equal reports whether a and b have identical dimensions, structure and
// values.
func (a *CSR) Equal(b *CSR) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || len(a.ColIdx) != len(b.ColIdx) {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for k := range a.ColIdx {
		if a.ColIdx[k] != b.ColIdx[k] || a.Val[k] != b.Val[k] {
			return false
		}
	}
	return true
}

// PatternEqual reports whether a and b have the same sparsity pattern,
// ignoring values.
func (a *CSR) PatternEqual(b *CSR) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || len(a.ColIdx) != len(b.ColIdx) {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for k := range a.ColIdx {
		if a.ColIdx[k] != b.ColIdx[k] {
			return false
		}
	}
	return true
}

// Transpose returns Aᵀ in CSR format using a linear-time counting pass.
func (a *CSR) Transpose() *CSR {
	t := &CSR{
		Rows:   a.Cols,
		Cols:   a.Rows,
		RowPtr: make([]int, a.Cols+1),
		ColIdx: make([]int32, len(a.ColIdx)),
		Val:    make([]float64, len(a.Val)),
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
			p := next[j]
			next[j]++
			t.ColIdx[p] = int32(i)
			t.Val[p] = a.Val[k]
		}
	}
	return t
}

// IsStructurallySymmetric reports whether the sparsity pattern of the
// square matrix a equals the pattern of its transpose.
func (a *CSR) IsStructurallySymmetric() bool {
	if a.Rows != a.Cols {
		return false
	}
	return a.PatternEqual(a.Transpose())
}

type colValSort struct {
	cols []int32
	vals []float64
}

func (s *colValSort) Len() int           { return len(s.cols) }
func (s *colValSort) Less(i, j int) bool { return s.cols[i] < s.cols[j] }
func (s *colValSort) Swap(i, j int) {
	s.cols[i], s.cols[j] = s.cols[j], s.cols[i]
	s.vals[i], s.vals[j] = s.vals[j], s.vals[i]
}

// Add returns A + B for matrices with identical dimensions. Coinciding
// nonzeros are summed; the result keeps explicit zeros that may arise.
func Add(a, b *CSR) (*CSR, error) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return nil, fmt.Errorf("sparse: dimension mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	c := &CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: make([]int, a.Rows+1)}
	c.ColIdx = make([]int32, 0, len(a.ColIdx)+len(b.ColIdx))
	c.Val = make([]float64, 0, len(a.Val)+len(b.Val))
	for i := 0; i < a.Rows; i++ {
		ka, kaEnd := a.RowPtr[i], a.RowPtr[i+1]
		kb, kbEnd := b.RowPtr[i], b.RowPtr[i+1]
		for ka < kaEnd || kb < kbEnd {
			switch {
			case kb >= kbEnd || (ka < kaEnd && a.ColIdx[ka] < b.ColIdx[kb]):
				c.ColIdx = append(c.ColIdx, a.ColIdx[ka])
				c.Val = append(c.Val, a.Val[ka])
				ka++
			case ka >= kaEnd || b.ColIdx[kb] < a.ColIdx[ka]:
				c.ColIdx = append(c.ColIdx, b.ColIdx[kb])
				c.Val = append(c.Val, b.Val[kb])
				kb++
			default:
				c.ColIdx = append(c.ColIdx, a.ColIdx[ka])
				c.Val = append(c.Val, a.Val[ka]+b.Val[kb])
				ka++
				kb++
			}
		}
		c.RowPtr[i+1] = len(c.ColIdx)
	}
	return c, nil
}

// Symmetrize returns the pattern-symmetric matrix A + Aᵀ for a square A,
// which the bandwidth- and fill-oriented orderings (RCM, AMD, ND, GP)
// require whenever the input pattern is unsymmetric.
func Symmetrize(a *CSR) (*CSR, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("sparse: cannot symmetrize non-square %dx%d matrix", a.Rows, a.Cols)
	}
	return Add(a, a.Transpose())
}
