// Package spmv implements the study's two shared-memory parallel sparse
// matrix-vector multiplication kernels for CSR matrices (paper §3.1):
//
//   - the 1D algorithm, which splits rows into equal-sized contiguous
//     blocks (the OpenMP "#pragma omp for" schedule) and is prone to load
//     imbalance, and
//   - the 2D algorithm, which splits the nonzeros evenly across threads and
//     handles rows that straddle thread boundaries specially, trading a
//     small one-time planning cost for perfect nonzero balance.
//
// All kernels compute y = A·x, overwriting y.
package spmv

import (
	"fmt"
	"sort"
	"sync"

	"sparseorder/internal/sparse"
)

// checkDims validates the vector lengths of a y = A·x entry point. Every
// exported kernel calls it on the calling goroutine before any worker is
// spawned, so a short vector surfaces as a clear error instead of an
// index-out-of-range panic inside an anonymous goroutine (which would
// kill the whole process unrecoverably).
func checkDims(a *sparse.CSR, x, y []float64) error {
	if len(x) < a.Cols {
		return fmt.Errorf("spmv: x has %d entries, need at least a.Cols = %d", len(x), a.Cols)
	}
	if len(y) < a.Rows {
		return fmt.Errorf("spmv: y has %d entries, need at least a.Rows = %d", len(y), a.Rows)
	}
	return nil
}

// Serial computes y = A·x on the calling goroutine; it is the reference
// implementation the parallel kernels are validated against.
func Serial(a *sparse.CSR, x, y []float64) error {
	if err := checkDims(a, x, y); err != nil {
		return err
	}
	serialUnchecked(a, x, y)
	return nil
}

// SerialDot computes y = A·x as Serial does and returns Σᵢ x[i]·y[i] over
// the rows, summed in row order: bitwise the plain loop's dot(x[:Rows], y)
// after the multiply. It is conjugate gradients' A·p product with its pᵀAp,
// whose add chain runs under the row loop's own latency instead of as a
// pass of its own. x must cover a.Rows as well as a.Cols.
func SerialDot(a *sparse.CSR, x, y []float64) (float64, error) {
	if err := checkDims(a, x, y); err != nil {
		return 0, err
	}
	if len(x) < a.Rows {
		return 0, fmt.Errorf("spmv: x has %d entries, need at least a.Rows = %d for the sum", len(x), a.Rows)
	}
	return mulRows(a.RowPtr, a.ColIdx, a.Val, x, y[:a.Rows], x[:a.Rows]), nil
}

func serialUnchecked(a *sparse.CSR, x, y []float64) {
	y = y[:a.Rows]
	mulRows(a.RowPtr, a.ColIdx, a.Val, x, y, y)
}

// mulRows is the one row kernel every multiply runs: it sets
// y[i] = Σ val[k]·x[colIdx[k]] over k in [rowPtr[i], rowPtr[i+1]) for each
// i < len(y), so rowPtr needs len(y)+1 entries (absolute offsets into colIdx
// and val; pass a.RowPtr[lo:hi+1] and y[lo:hi] for rows [lo, hi)). It
// returns Σ w[i]·y[i] over those rows, added in row order from zero, so w
// needs len(y) entries; a caller with no use for the sum passes y as w and
// drops it.
//
// It computes two rows per step, one accumulator each, so one row's add
// chain overlaps the other's instead of every product waiting on the
// previous add. Each row still sums its products in CSR order starting
// from zero, so every output is bitwise equal to the plain one-row loop's.
// Each row's columns and values are subslices of equal length, which lets
// the compiler drop their bounds checks in the paired loop; x[c] keeps its
// check. The weighted sum's one add per row hides under the rows' chains;
// skipping it when unused behind a branch measured slower than always
// paying for it.
func mulRows(rowPtr []int, colIdx []int32, val []float64, x, y, w []float64) float64 {
	rowPtr = rowPtr[:len(y)+1]
	w = w[:len(y)]
	dot := 0.0
	i := 0
	for ; i+1 < len(y); i += 2 {
		k0, k1, k2 := rowPtr[i], rowPtr[i+1], rowPtr[i+2]
		c0, v0 := colIdx[k0:k1], val[k0:k1]
		c1, v1 := colIdx[k1:k2], val[k1:k2]
		s0, s1 := 0.0, 0.0
		j := 0
		for ; j < len(c0) && j < len(c1); j++ {
			s0 += v0[j] * x[c0[j]]
			s1 += v1[j] * x[c1[j]]
		}
		// At most one of the two rows has products left.
		for ; j < len(c0); j++ {
			s0 += v0[j] * x[c0[j]]
		}
		for ; j < len(c1); j++ {
			s1 += v1[j] * x[c1[j]]
		}
		y[i], y[i+1] = s0, s1
		dot += w[i] * s0
		dot += w[i+1] * s1
	}
	if i < len(y) {
		k0, k1 := rowPtr[i], rowPtr[i+1]
		c0, v0 := colIdx[k0:k1], val[k0:k1]
		s0 := 0.0
		for j, c := range c0 {
			s0 += v0[j] * x[c]
		}
		y[i] = s0
		dot += w[i] * s0
	}
	return dot
}

// rangeSum returns the CSR-order sum of val[k]·x[colIdx[k]] over the
// nonzeros [k0, k1) of a single row: the partial row a thread owns when
// its range starts or ends inside that row.
func rangeSum(a *sparse.CSR, x []float64, k0, k1 int) float64 {
	var s [1]float64
	mulRows([]int{k0, k1}, a.ColIdx, a.Val, x, s[:], s[:])
	return s[0]
}

// RowBlocks1D returns the row ranges of the 1D algorithm's static even row
// split: thread t owns rows [blocks[t], blocks[t+1]).
func RowBlocks1D(rows, threads int) []int {
	b := make([]int, threads+1)
	for t := 0; t <= threads; t++ {
		b[t] = t * rows / threads
	}
	return b
}

// ThreadNNZ1D returns the number of nonzeros each thread processes under
// the 1D even row split.
func ThreadNNZ1D(a *sparse.CSR, threads int) []int {
	b := RowBlocks1D(a.Rows, threads)
	nnz := make([]int, threads)
	for t := 0; t < threads; t++ {
		nnz[t] = a.RowPtr[b[t+1]] - a.RowPtr[b[t]]
	}
	return nnz
}

// Mul1D computes y = A·x with the 1D algorithm on the given number of
// threads (goroutines).
func Mul1D(a *sparse.CSR, x, y []float64, threads int) error {
	if err := checkDims(a, x, y); err != nil {
		return err
	}
	if threads <= 1 {
		serialUnchecked(a, x, y)
		return nil
	}
	b := RowBlocks1D(a.Rows, threads)
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		lo, hi := b[t], b[t+1]
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			mulRows(a.RowPtr[lo:hi+1], a.ColIdx, a.Val, x, y[lo:hi], y[lo:hi])
		}(lo, hi)
	}
	wg.Wait()
	return nil
}

// Plan2D holds the one-time preprocessing of the 2D algorithm for a fixed
// matrix and thread count: the nonzero split points and, for each thread,
// the first row its range touches. The paper amortises this cost over many
// SpMV iterations and excludes it from measurements; reusing a Plan2D does
// the same.
//
// Reuse contract: a Plan2D is valid only for the exact matrix it was built
// from. If the matrix's structure changes in any way (entries added or
// removed, rows permuted, a different matrix substituted), the plan must
// be rebuilt with NewPlan2D; Mul2D rejects a plan whose split points no
// longer cover the matrix. A plan may be reused for value-only updates
// that keep RowPtr identical. Mul2D only reads the plan (each call keeps
// its own scratch), so one plan may serve any number of concurrent calls.
type Plan2D struct {
	Threads  int
	KSplit   []int // KSplit[t] = first nonzero of thread t; len threads+1
	RowStart []int // row containing KSplit[t] (or Rows when exhausted)
}

// partial is one thread's sum over its part of a row that a split point
// cuts; row < 0 marks a slot the thread left empty.
type partial struct {
	row int
	sum float64
}

// NewPlan2D builds the 2D execution plan: thread t is assigned nonzeros
// [t·nnz/threads, (t+1)·nnz/threads).
func NewPlan2D(a *sparse.CSR, threads int) (*Plan2D, error) {
	if threads < 1 {
		return nil, fmt.Errorf("spmv: threads must be >= 1, got %d", threads)
	}
	nnz := a.NNZ()
	p := &Plan2D{
		Threads:  threads,
		KSplit:   make([]int, threads+1),
		RowStart: make([]int, threads+1),
	}
	for t := 0; t <= threads; t++ {
		k := t * nnz / threads
		p.KSplit[t] = k
		// First row r with RowPtr[r+1] > k, i.e. the row containing
		// nonzero k; Rows when k == nnz.
		p.RowStart[t] = sort.Search(a.Rows, func(r int) bool { return a.RowPtr[r+1] > k })
	}
	return p, nil
}

// ThreadNNZ returns the nonzeros per thread under the plan (equal up to
// rounding by construction).
func (p *Plan2D) ThreadNNZ() []int {
	nnz := make([]int, p.Threads)
	for t := 0; t < p.Threads; t++ {
		nnz[t] = p.KSplit[t+1] - p.KSplit[t]
	}
	return nnz
}

// CheckPlan reports whether the plan matches the matrix: the split points
// must cover exactly the matrix's nonzeros and rows. The check is O(1), so
// Mul2D runs it on every call — a stale plan (built for a different matrix
// or an out-of-date structure) would otherwise silently compute garbage or
// panic inside a worker goroutine.
func (p *Plan2D) CheckPlan(a *sparse.CSR) error {
	if len(p.KSplit) != p.Threads+1 || len(p.RowStart) != p.Threads+1 {
		return fmt.Errorf("spmv: malformed Plan2D: threads=%d but %d/%d split points",
			p.Threads, len(p.KSplit), len(p.RowStart))
	}
	if p.KSplit[p.Threads] != a.NNZ() || p.RowStart[p.Threads] != a.Rows {
		return fmt.Errorf("spmv: Plan2D built for a different matrix (plan covers %d nonzeros / %d rows, matrix has %d / %d); rebuild with NewPlan2D",
			p.KSplit[p.Threads], p.RowStart[p.Threads], a.NNZ(), a.Rows)
	}
	return nil
}

// Mul2D computes y = A·x with the 2D (nonzero-balanced) algorithm using the
// given plan. Rows fully inside a thread's nonzero range are written
// directly; rows straddling a boundary are accumulated thread-locally and
// combined in a short sequential fix-up pass, avoiding atomics.
//
// The plan must have been built from this exact matrix (see the Plan2D
// reuse contract); a mismatched plan is rejected with an error.
func Mul2D(a *sparse.CSR, x, y []float64, p *Plan2D) error {
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
	zeroRows(y[:a.Rows], p.Threads)

	// Thread t writes its leading straddled row to slot 2t and its
	// trailing one to slot 2t+1.
	slots := make([]partial, 2*p.Threads)
	for i := range slots {
		slots[i].row = -1
	}
	var wg sync.WaitGroup
	for t := 0; t < p.Threads; t++ {
		if p.KSplit[t] >= p.KSplit[t+1] {
			continue
		}
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			p.mulThread(a, x, y, t, slots[2*t:2*t+2])
		}(t)
	}
	wg.Wait()

	// Sequential fix-up in thread order, each thread's leading row before
	// its trailing one.
	for _, s := range slots {
		if s.row >= 0 {
			y[s.row] += s.sum
		}
	}
	return nil
}

// zeroRows zeroes y in parallel row blocks; the 2D kernel's straddled and
// empty rows rely on it.
func zeroRows(y []float64, threads int) {
	var wg sync.WaitGroup
	zb := RowBlocks1D(len(y), threads)
	for t := 0; t < threads; t++ {
		lo, hi := zb[t], zb[t+1]
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(y []float64) {
			defer wg.Done()
			clear(y)
		}(y[lo:hi])
	}
	wg.Wait()
}

// mulThread runs thread t's share of a 2D multiply. The rows wholly inside
// the thread's nonzero range [KSplit[t], KSplit[t+1]) go through mulRows
// straight into y, each with exactly one owner; the at most two rows
// straddling a split point are summed over the thread's part of them into
// own[0] (the leading row) and own[1] (the trailing one). A slot with no
// straddled row is left as it is.
func (p *Plan2D) mulThread(a *sparse.CSR, x, y []float64, t int, own []partial) {
	kLo, kHi := p.KSplit[t], p.KSplit[t+1]
	// lo is the row holding nonzero kLo and hi the first row ending after
	// kHi, so every row in [lo, hi) ends by kHi.
	lo, hi := p.RowStart[t], p.RowStart[t+1]
	if a.RowPtr[lo] < kLo {
		own[0] = partial{lo, rangeSum(a, x, kLo, min(a.RowPtr[lo+1], kHi))}
		lo++
	}
	if lo < hi {
		mulRows(a.RowPtr[lo:hi+1], a.ColIdx, a.Val, x, y[lo:hi], y[lo:hi])
	}
	if lo <= hi && hi < a.Rows && a.RowPtr[hi] < kHi {
		own[1] = partial{hi, rangeSum(a, x, a.RowPtr[hi], kHi)}
	}
}

// Gflops converts an SpMV time in seconds to Gflop/s using the paper's
// convention of two flops per nonzero.
func Gflops(nnz int, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return 2 * float64(nnz) / seconds / 1e9
}
