package spmv

import (
	"fmt"
	"sort"
	"sync"

	"sparseorder/internal/sparse"
)

// The merge-based kernel of Merrill and Garland (paper §3.1, ref. [20]):
// the paper's 2D algorithm is a simplified version of it. The kernel
// models SpMV as a merge of the row-end offsets RowPtr[1..M] with the
// nonzero indices 0..NNZ-1; splitting the merge path into equal pieces
// balances rows AND nonzeros simultaneously, so even pathological
// matrices (millions of empty rows, or one giant row) split evenly.

// PlanMerge holds the merge-path split coordinates for a fixed matrix and
// thread count. Like a Plan2D it is read-only once built, so one plan may
// serve any number of concurrent MulMerge calls.
type PlanMerge struct {
	Threads  int
	StartRow []int // row coordinate of each thread's path start
	StartNZ  []int // nonzero coordinate of each thread's path start
}

// NewPlanMerge computes the merge-path split: thread t starts at the
// two-dimensional merge coordinate found by binary search on diagonal
// t·(rows+nnz)/threads.
func NewPlanMerge(a *sparse.CSR, threads int) (*PlanMerge, error) {
	if threads < 1 {
		return nil, errThreads(threads)
	}
	total := a.Rows + a.NNZ()
	p := &PlanMerge{
		Threads:  threads,
		StartRow: make([]int, threads+1),
		StartNZ:  make([]int, threads+1),
	}
	for t := 0; t <= threads; t++ {
		d := t * total / threads
		i := mergePathSearch(a.RowPtr, a.Rows, a.NNZ(), d)
		p.StartRow[t] = i
		p.StartNZ[t] = d - i
	}
	return p, nil
}

// mergePathSearch returns the row coordinate of the merge path on
// diagonal d: the smallest i with RowPtr[i+1] + i >= d (so that i row-ends
// and d-i nonzeros have been consumed).
func mergePathSearch(rowPtr []int, rows, nnz, d int) int {
	lo := d - nnz
	if lo < 0 {
		lo = 0
	}
	hi := d
	if hi > rows {
		hi = rows
	}
	// Binary search over i in [lo, hi] for the first i with
	// rowPtr[i+1]+i >= d; rowPtr[i+1]+i is strictly increasing in i.
	return lo + sort.Search(hi-lo, func(k int) bool {
		i := lo + k
		return rowPtr[i+1]+i >= d
	})
}

// CheckPlan reports whether the plan matches the matrix; like
// Plan2D.CheckPlan it is O(1) and run on every MulMerge call. A PlanMerge
// follows the same reuse contract as Plan2D: rebuild it whenever the
// matrix's structure changes.
func (p *PlanMerge) CheckPlan(a *sparse.CSR) error {
	if len(p.StartRow) != p.Threads+1 || len(p.StartNZ) != p.Threads+1 {
		return fmt.Errorf("spmv: malformed PlanMerge: threads=%d but %d/%d split points",
			p.Threads, len(p.StartRow), len(p.StartNZ))
	}
	if p.StartNZ[p.Threads] != a.NNZ() || p.StartRow[p.Threads] != a.Rows {
		return fmt.Errorf("spmv: PlanMerge built for a different matrix (plan covers %d nonzeros / %d rows, matrix has %d / %d); rebuild with NewPlanMerge",
			p.StartNZ[p.Threads], p.StartRow[p.Threads], a.NNZ(), a.Rows)
	}
	return nil
}

// MulMerge computes y = A·x with the merge-based kernel. Rows completed by
// a thread are written directly; the trailing partial row of each thread
// is carried out and added in a short sequential fix-up, mirroring the
// carry-out scheme of the original kernel.
func MulMerge(a *sparse.CSR, x, y []float64, p *PlanMerge) error {
	if err := checkDims(a, x, y); err != nil {
		return err
	}
	if err := p.CheckPlan(a); err != nil {
		return err
	}
	if p.Threads == 1 {
		serialUnchecked(a, x, y)
		return nil
	}
	// carry[t] is thread t's trailing partial row.
	carry := make([]partial, p.Threads)
	var wg sync.WaitGroup
	for t := 0; t < p.Threads; t++ {
		rowLo, nzLo := p.StartRow[t], p.StartNZ[t]
		rowHi, nzHi := p.StartRow[t+1], p.StartNZ[t+1]
		wg.Add(1)
		go func(t, rowLo, kLo, rowHi, kHi int) {
			defer wg.Done()
			if rowLo < rowHi {
				// The leading row may have begun in an earlier thread,
				// whose carry-out the fix-up adds.
				y[rowLo] = rangeSum(a, x, kLo, a.RowPtr[rowLo+1])
				mulRows(a.RowPtr[rowLo+1:rowHi+1], a.ColIdx, a.Val, x, y[rowLo+1:rowHi], y[rowLo+1:rowHi])
				kLo = a.RowPtr[rowHi]
			}
			// Trailing partial row (if the thread's range ends mid-row).
			carry[t] = partial{rowHi, rangeSum(a, x, kLo, kHi)}
		}(t, rowLo, nzLo, rowHi, nzHi)
	}
	wg.Wait()
	for _, c := range carry {
		if c.row < a.Rows && c.sum != 0 {
			y[c.row] += c.sum
		}
	}
	return nil
}

func errThreads(threads int) error {
	return &threadsError{threads}
}

type threadsError struct{ threads int }

// Error includes the offending value, matching NewPlan2D's diagnostic; the
// original message dropped e.threads, which made "got 0" and "got -8"
// indistinguishable in study logs.
func (e *threadsError) Error() string {
	return fmt.Sprintf("spmv: threads must be >= 1, got %d", e.threads)
}
