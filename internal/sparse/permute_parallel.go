package sparse

import (
	"fmt"
	"sort"

	"sparseorder/internal/par"
)

// Worker-count convention shared by the *Workers functions in this package
// (and mirrored by internal/graph, internal/metrics and internal/reorder):
// 0 means GOMAXPROCS and any positive count bounds the goroutines used; at
// 1 the same code runs as one row range inline on the caller's goroutine.
// Output is byte-identical at every worker count: the RowPtr prefix sum
// fixes each output row's offset up front, so row ranges are filled
// independently, and within-row sorting is by unique column indices whose
// sorted order does not depend on the sorting algorithm. The tests check
// every worker count against the sequential oracles in
// permute_oracle_test.go.

// PermuteSymmetricWorkers returns P·A·Pᵀ, the matrix with rows and columns
// simultaneously reordered by p (new-to-old). All orderings in the study
// except Gray are symmetric permutations. Rows are counted, scattered and
// sorted over row ranges split across the given worker count.
func PermuteSymmetricWorkers(a *CSR, p Perm, workers int) (*CSR, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("sparse: symmetric permutation of non-square %dx%d matrix", a.Rows, a.Cols)
	}
	if err := checkPerm(p, a.Rows, ""); err != nil {
		return nil, err
	}
	w := par.Resolve(workers)
	inv := p.Inverse()
	b := permutedRowPtr(a, p, w)
	par.Ranges(a.Rows, w, func(_, lo, hi int) {
		ls := longRowSorter{n: a.Cols}
		for newI := lo; newI < hi; newI++ {
			oldI := p[newI]
			dst := b.RowPtr[newI]
			for k := a.RowPtr[oldI]; k < a.RowPtr[oldI+1]; k++ {
				b.ColIdx[dst] = int32(inv[a.ColIdx[k]])
				b.Val[dst] = a.Val[k]
				dst++
			}
			cols, vals := b.ColIdx[b.RowPtr[newI]:dst], b.Val[b.RowPtr[newI]:dst]
			if len(cols) > shortRowMax {
				ls.sort(cols, vals)
			} else {
				sortColVal(cols, vals)
			}
		}
	})
	return b, nil
}

// PermuteRowsWorkers returns P·A, the matrix with only its rows reordered
// by p (new-to-old); columns are left in place. The Gray ordering is
// applied this way because it does not preserve symmetry. Rows are counted
// and copied over row ranges split across the given worker count.
func PermuteRowsWorkers(a *CSR, p Perm, workers int) (*CSR, error) {
	if err := checkPerm(p, a.Rows, " rows"); err != nil {
		return nil, err
	}
	w := par.Resolve(workers)
	b := permutedRowPtr(a, p, w)
	par.Ranges(a.Rows, w, func(_, lo, hi int) {
		for newI := lo; newI < hi; newI++ {
			oldI := p[newI]
			dst := b.RowPtr[newI]
			copy(b.ColIdx[dst:b.RowPtr[newI+1]], a.ColIdx[a.RowPtr[oldI]:a.RowPtr[oldI+1]])
			copy(b.Val[dst:b.RowPtr[newI+1]], a.Val[a.RowPtr[oldI]:a.RowPtr[oldI+1]])
		}
	})
	return b, nil
}

// permutedRowPtr allocates the result of permuting a's rows by p and fills
// its RowPtr: row lengths are counted over parallel row ranges, then
// prefix-summed serially (O(rows)).
func permutedRowPtr(a *CSR, p Perm, w int) *CSR {
	b := &CSR{
		Rows:   a.Rows,
		Cols:   a.Cols,
		RowPtr: make([]int, a.Rows+1),
		ColIdx: make([]int32, a.NNZ()),
		Val:    make([]float64, a.NNZ()),
	}
	par.Ranges(a.Rows, w, func(_, lo, hi int) {
		for newI := lo; newI < hi; newI++ {
			b.RowPtr[newI+1] = a.RowNNZ(p[newI])
		}
	})
	for newI := 0; newI < a.Rows; newI++ {
		b.RowPtr[newI+1] += b.RowPtr[newI]
	}
	return b
}

// checkPerm validates a permutation of length n; suffix names what n
// counts in the length error.
func checkPerm(p Perm, n int, suffix string) error {
	if len(p) != n {
		return fmt.Errorf("sparse: permutation length %d, want %d%s", len(p), n, suffix)
	}
	return p.Validate()
}

// longRowSorter counting-sorts rows longer than shortRowMax with unique
// column indices (the CSR invariant inside PermuteSymmetricWorkers):
// values are parked at their column slot in a generation-stamped scratch
// of the matrix width, then collected by an ascending scan of the row's
// column span. The scan is sequential memory traffic, so for rows that
// occupy a decent fraction of their span it is far cheaper than a
// comparison sort; sparse long rows (span > ~16 slots per nonzero) fall
// back to sort.Sort. The output — unique columns ascending — is what
// every sort produces, so this changes nothing but time. Not safe for
// rows with duplicate columns, which would collapse to one slot.
type longRowSorter struct {
	n     int // matrix column count (scratch width)
	gen   int32
	stamp []int32
	val   []float64
}

func (s *longRowSorter) sort(cols []int32, vals []float64) {
	minC, maxC := cols[0], cols[0]
	for _, c := range cols[1:] {
		if c < minC {
			minC = c
		}
		if c > maxC {
			maxC = c
		}
	}
	if span := int(maxC-minC) + 1; span > 16*len(cols) {
		sort.Sort(&colValSort{cols, vals})
		return
	}
	if s.stamp == nil {
		s.stamp = make([]int32, s.n)
		s.val = make([]float64, s.n)
		s.gen = 0
	}
	s.gen++
	for k, c := range cols {
		s.stamp[c] = s.gen
		s.val[c] = vals[k]
	}
	k := 0
	for c := minC; c <= maxC; c++ {
		if s.stamp[c] == s.gen {
			cols[k] = c
			vals[k] = s.val[c]
			k++
		}
	}
}
