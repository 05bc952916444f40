package cholesky

import "sparseorder/internal/sparse"

// colCountsNaive is an independent O(|L|) oracle of ColCounts: for every
// row i it walks the elimination-tree paths from each below-diagonal entry
// up toward i, which enumerates exactly the columns of row i of L.
func colCountsNaive(a *sparse.CSR) ([]int64, error) {
	parent, err := EliminationTree(a)
	if err != nil {
		return nil, err
	}
	n := a.Rows
	counts := make([]int64, n)
	mark := make([]int32, n)
	for i := range mark {
		mark[i] = -1
	}
	for i := 0; i < n; i++ {
		counts[i]++ // diagonal of column i
		mark[i] = int32(i)
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColIdx[k]
			for int(j) < i && mark[j] != int32(i) {
				counts[j]++
				mark[j] = int32(i)
				j = parent[j]
			}
		}
	}
	return counts, nil
}
