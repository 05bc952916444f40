package sparse

import (
	"fmt"
)

// COO is a sparse matrix in coordinate (triplet) format. Entries may appear
// in any order and duplicates are permitted; conversion to CSR sums them.
type COO struct {
	Rows int
	Cols int
	Row  []int32
	Col  []int32
	Val  []float64
}

// NewCOO returns an empty coordinate-format matrix with capacity for nnz
// entries.
func NewCOO(rows, cols, nnz int) *COO {
	return &COO{
		Rows: rows,
		Cols: cols,
		Row:  make([]int32, 0, nnz),
		Col:  make([]int32, 0, nnz),
		Val:  make([]float64, 0, nnz),
	}
}

// Append adds the entry (i, j, v). Storage uses int32 indices; an index
// outside the int32 range panics immediately rather than being narrowed
// (a wrapped index could land back inside the matrix dimensions, where
// ToCSR cannot tell it from a legitimate entry). Dimension bounds are
// checked later by ToCSR; readers of untrusted input should range-check
// before appending, as the Matrix Market reader does.
func (c *COO) Append(i, j int, v float64) {
	if int(int32(i)) != i || int(int32(j)) != j {
		panic(fmt.Sprintf("sparse: COO index (%d,%d) overflows int32", i, j))
	}
	c.Row = append(c.Row, int32(i))
	c.Col = append(c.Col, int32(j))
	c.Val = append(c.Val, v)
}

// NNZ returns the number of stored entries, counting duplicates.
func (c *COO) NNZ() int { return len(c.Val) }

// ToCSR converts the triplets to CSR format. Entries are grouped by row,
// sorted by column within each row, and duplicate coordinates are summed
// in entry order. It is the bucket-and-merge assembly of assemble.go run
// over one segment on the caller's goroutine.
func (c *COO) ToCSR() (*CSR, error) {
	if len(c.Row) != len(c.Col) || len(c.Row) != len(c.Val) {
		return nil, fmt.Errorf("sparse: COO slice length mismatch %d/%d/%d", len(c.Row), len(c.Col), len(c.Val))
	}
	return assembleSegs(c.Rows, c.Cols, []cooSeg{{row: c.Row, col: c.Col, val: c.Val}}, 1)
}

// FromCSR converts a CSR matrix back to coordinate format.
func FromCSR(a *CSR) *COO {
	c := NewCOO(a.Rows, a.Cols, a.NNZ())
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			c.Append(i, int(a.ColIdx[k]), a.Val[k])
		}
	}
	return c
}
