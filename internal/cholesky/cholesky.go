// Package cholesky computes the fill-in of sparse Cholesky factorisation
// for the study's Figure 6: the elimination tree of a symmetric matrix,
// its postordering, and the column counts of the factor L via the
// row/column counting algorithm of Gilbert, Ng and Peyton (paper ref.
// [13]) in the formulation popularised by CSparse. Only the sparsity
// pattern matters; no numerical factorisation is performed.
package cholesky

import (
	"fmt"

	"sparseorder/internal/sparse"
)

// EliminationTree returns the parent array of the elimination tree of the
// pattern-symmetric matrix a, using ancestor path compression. Roots have
// parent -1.
func EliminationTree(a *sparse.CSR) ([]int32, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("cholesky: matrix must be square, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	parent := make([]int32, n)
	ancestor := make([]int32, n)
	for i := 0; i < n; i++ {
		parent[i] = -1
		ancestor[i] = -1
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColIdx[k]
			for j != -1 && int(j) < i {
				next := ancestor[j]
				ancestor[j] = int32(i)
				if next == -1 {
					parent[j] = int32(i)
				}
				j = next
			}
		}
	}
	return parent, nil
}

// Postorder returns a postordering of the forest given by parent: children
// are visited before parents and siblings in ascending order.
func Postorder(parent []int32) []int32 {
	n := len(parent)
	head := make([]int32, n)
	next := make([]int32, n)
	for i := range head {
		head[i] = -1
	}
	// Build child lists in reverse so traversal visits ascending children.
	for i := n - 1; i >= 0; i-- {
		p := parent[i]
		if p != -1 {
			next[i] = head[p]
			head[p] = int32(i)
		}
	}
	post := make([]int32, 0, n)
	stack := make([]int32, 0, n)
	for root := 0; root < n; root++ {
		if parent[root] != -1 {
			continue
		}
		stack = append(stack, int32(root))
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			if c := head[v]; c != -1 {
				head[v] = next[c] // detach child; revisit v later
				stack = append(stack, c)
			} else {
				stack = stack[:len(stack)-1]
				post = append(post, v)
			}
		}
	}
	return post
}

// ColCounts returns the number of nonzeros of every column of the Cholesky
// factor L (diagonal included) for the pattern-symmetric matrix a, using
// the Gilbert-Ng-Peyton skeleton-matrix algorithm: for each column j in
// postorder, the "leaf" tests against maxfirst detect skeleton entries, and
// overlaps are subtracted at least-common ancestors found by a
// path-compressed union toward the current subtree root.
func ColCounts(a *sparse.CSR) ([]int64, error) {
	parent, err := EliminationTree(a)
	if err != nil {
		return nil, err
	}
	n := a.Rows
	post := Postorder(parent)

	first := make([]int32, n)
	maxfirst := make([]int32, n)
	prevleaf := make([]int32, n)
	ancestor := make([]int32, n)
	delta := make([]int64, n)
	for i := 0; i < n; i++ {
		first[i] = -1
		maxfirst[i] = -1
		prevleaf[i] = -1
		ancestor[i] = int32(i)
	}
	for k := 0; k < n; k++ {
		j := post[k]
		if first[j] == -1 {
			delta[j] = 1 // j is a leaf of the etree
		}
		for t := j; t != -1 && first[t] == -1; t = parent[t] {
			first[t] = int32(k)
		}
	}

	for k := 0; k < n; k++ {
		j := post[k]
		if parent[j] != -1 {
			delta[parent[j]]--
		}
		for p := a.RowPtr[j]; p < a.RowPtr[j+1]; p++ {
			i := a.ColIdx[p]
			q, kind := leaf(i, j, first, maxfirst, prevleaf, ancestor)
			if kind >= 1 {
				delta[j]++
			}
			if kind == 2 {
				delta[q]--
			}
		}
		if parent[j] != -1 {
			ancestor[j] = parent[j]
		}
	}

	counts := delta
	for _, j := range post {
		if parent[j] != -1 {
			counts[parent[j]] += counts[j]
		}
	}
	return counts, nil
}

// leaf implements the cs_leaf test: it decides whether column j is a leaf
// of the row subtree of row i, updating maxfirst/prevleaf, and returns the
// least common ancestor of j and the previous leaf when one exists.
// kind is 0 (not a leaf), 1 (first leaf) or 2 (subsequent leaf).
func leaf(i, j int32, first, maxfirst, prevleaf, ancestor []int32) (q int32, kind int) {
	if i <= j || first[j] <= maxfirst[i] {
		return -1, 0
	}
	maxfirst[i] = first[j]
	jprev := prevleaf[i]
	prevleaf[i] = j
	if jprev == -1 {
		return i, 1
	}
	q = jprev
	for q != ancestor[q] {
		q = ancestor[q]
	}
	for s := jprev; s != q; {
		next := ancestor[s]
		ancestor[s] = q
		s = next
	}
	return q, 2
}

// FactorNNZ returns the total number of nonzeros of L (diagonal included).
func FactorNNZ(a *sparse.CSR) (int64, error) {
	counts, err := ColCounts(a)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	return total, nil
}

// FillRatio returns nnz(L)/nnz(A), the quantity of the paper's Figure 6,
// where nnz(A) counts both triangles plus the diagonal of the symmetric
// matrix a.
func FillRatio(a *sparse.CSR) (float64, error) {
	l, err := FactorNNZ(a)
	if err != nil {
		return 0, err
	}
	if a.NNZ() == 0 {
		return 0, nil
	}
	return float64(l) / float64(a.NNZ()), nil
}
