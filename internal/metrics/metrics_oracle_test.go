package metrics

import "sparseorder/internal/sparse"

// This file keeps one-feature-per-pass implementations as the oracle of
// ComputeWorkers's fused pass, which the tests compare against them at
// every worker count, 1 included.

// bandwidth returns max |i-j| over nonzeros a_ij.
func bandwidth(a *sparse.CSR) int {
	bw := 0
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			d := i - int(a.ColIdx[k])
			if d < 0 {
				d = -d
			}
			if d > bw {
				bw = d
			}
		}
	}
	return bw
}

// profile returns Σ_i (i - leftmost column of row i) over rows whose
// leftmost nonzero lies left of the diagonal, scanning every entry so
// unsorted rows count correctly.
func profile(a *sparse.CSR) int64 {
	var p int64
	for i := 0; i < a.Rows; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		if lo == hi {
			continue
		}
		first := int(a.ColIdx[lo])
		for k := lo + 1; k < hi; k++ {
			if c := int(a.ColIdx[k]); c < first {
				first = c
			}
		}
		if first < i {
			p += int64(i - first)
		}
	}
	return p
}

// offDiagonalNNZ counts nonzeros whose row block differs from their
// column block in an even blocks×blocks grid.
func offDiagonalNNZ(a *sparse.CSR, blocks int) int64 {
	if blocks <= 1 || a.Rows == 0 || a.Cols == 0 {
		return 0
	}
	var count int64
	for i := 0; i < a.Rows; i++ {
		bi := i * blocks / a.Rows
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if int(a.ColIdx[k])*blocks/a.Cols != bi {
				count++
			}
		}
	}
	return count
}

// computeOracle evaluates every feature in its own pass.
func computeOracle(a *sparse.CSR, blocks, threads int) Features {
	return Features{
		Bandwidth:   bandwidth(a),
		Profile:     profile(a),
		OffDiagNNZ:  offDiagonalNNZ(a, blocks),
		Imbalance1D: Imbalance1D(a, threads),
	}
}
