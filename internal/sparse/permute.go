package sparse

import "fmt"

// A Perm describes a matrix ordering in new-to-old form: position i of the
// reordered matrix holds row (and, for symmetric permutations, column)
// Perm[i] of the original matrix. This is the order in which traversal-based
// algorithms such as Cuthill-McKee visit vertices.
type Perm []int

// Identity returns the identity permutation of length n.
func Identity(n int) Perm {
	p := make(Perm, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// PermError describes the first way a permutation fails to be a bijection
// on {0, …, N-1}. Perm.Validate returns it, and the permutation entry
// points propagate it, so callers can recognise a buggy ordering with
// errors.As before it corrupts a matrix.
type PermError struct {
	N     int // permutation length
	Index int // offending position
	Value int // value found at Index
	Dup   int // earlier position holding the same value; -1 for a range error
}

func (e *PermError) Error() string {
	if e.Dup >= 0 {
		return fmt.Sprintf("sparse: permutation of length %d maps positions %d and %d to the same value %d",
			e.N, e.Dup, e.Index, e.Value)
	}
	return fmt.Sprintf("sparse: permutation of length %d has out-of-range value %d at position %d",
		e.N, e.Value, e.Index)
}

// Validate checks that p is a bijection on {0, …, len(p)-1}, returning a
// *PermError locating the first out-of-range or duplicated value.
func (p Perm) Validate() error {
	seen := make([]int32, len(p))
	for i := range seen {
		seen[i] = -1
	}
	for i, v := range p {
		if v < 0 || v >= len(p) {
			return &PermError{N: len(p), Index: i, Value: v, Dup: -1}
		}
		if j := seen[v]; j >= 0 {
			return &PermError{N: len(p), Index: i, Value: v, Dup: int(j)}
		}
		seen[v] = int32(i)
	}
	return nil
}

// IsValid reports whether p is a bijection on {0, …, len(p)-1}.
func (p Perm) IsValid() bool { return p.Validate() == nil }

// Inverse returns the old-to-new permutation q with q[p[i]] = i.
func (p Perm) Inverse() Perm {
	q := make(Perm, len(p))
	for i, v := range p {
		q[v] = i
	}
	return q
}
