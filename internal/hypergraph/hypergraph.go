// Package hypergraph implements a multilevel hypergraph partitioner in the
// style of PaToH, specialised to the configuration the study uses:
// column-net model, cut-net objective, recursive bisection to k parts,
// first-choice coarsening and FM refinement. Its settings are constants;
// Options sets only the seed, the worker count, cancellation and
// observability.
package hypergraph

import (
	"fmt"

	"sparseorder/internal/sparse"
)

// Hypergraph stores vertices and nets (hyperedges) with both incidence
// directions in CSR-like form: VPtr/VNets lists the nets of each vertex and
// NPtr/NPins lists the pins (vertices) of each net.
type Hypergraph struct {
	V     int
	Nets  int
	VPtr  []int
	VNets []int32
	NPtr  []int
	NPins []int32
	VWgt  []int32 // nil means unit weights
}

// Pins returns the vertices of net n.
func (h *Hypergraph) Pins(n int) []int32 { return h.NPins[h.NPtr[n]:h.NPtr[n+1]] }

// NetsOf returns the nets incident to vertex v.
func (h *Hypergraph) NetsOf(v int) []int32 { return h.VNets[h.VPtr[v]:h.VPtr[v+1]] }

// VertexWeight returns the weight of v (1 when unweighted).
func (h *Hypergraph) VertexWeight(v int) int {
	if h.VWgt == nil {
		return 1
	}
	return int(h.VWgt[v])
}

// TotalVertexWeight returns the sum of vertex weights.
func (h *Hypergraph) TotalVertexWeight() int {
	if h.VWgt == nil {
		return h.V
	}
	t := 0
	for _, w := range h.VWgt {
		t += int(w)
	}
	return t
}

// Validate checks that both incidence directions agree.
func (h *Hypergraph) Validate() error {
	if len(h.VPtr) != h.V+1 || len(h.NPtr) != h.Nets+1 {
		return fmt.Errorf("hypergraph: pointer array lengths inconsistent")
	}
	if len(h.VNets) != len(h.NPins) {
		return fmt.Errorf("hypergraph: pin count mismatch %d vs %d", len(h.VNets), len(h.NPins))
	}
	type pin struct{ v, n int32 }
	seen := make(map[pin]bool, len(h.NPins))
	for n := 0; n < h.Nets; n++ {
		for _, v := range h.Pins(n) {
			if v < 0 || int(v) >= h.V {
				return fmt.Errorf("hypergraph: pin %d of net %d out of range", v, n)
			}
			seen[pin{v, int32(n)}] = true
		}
	}
	for v := 0; v < h.V; v++ {
		for _, n := range h.NetsOf(v) {
			if n < 0 || int(n) >= h.Nets {
				return fmt.Errorf("hypergraph: net %d of vertex %d out of range", n, v)
			}
			if !seen[pin{int32(v), n}] {
				return fmt.Errorf("hypergraph: vertex %d lists net %d but net lacks the pin", v, n)
			}
			delete(seen, pin{int32(v), n})
		}
	}
	if len(seen) != 0 {
		return fmt.Errorf("hypergraph: %d pins missing from vertex lists", len(seen))
	}
	return nil
}

// ColumnNet builds the column-net hypergraph of a sparse matrix: one vertex
// per row, one net per column, and a pin (i, j) for every nonzero a_ij.
// This is the model the paper uses with PaToH.
func ColumnNet(a *sparse.CSR) *Hypergraph {
	h := &Hypergraph{
		V:     a.Rows,
		Nets:  a.Cols,
		VPtr:  make([]int, a.Rows+1),
		VNets: make([]int32, a.NNZ()),
		NPtr:  make([]int, a.Cols+1),
		NPins: make([]int32, a.NNZ()),
	}
	copy(h.VPtr, a.RowPtr)
	copy(h.VNets, a.ColIdx)
	for _, j := range a.ColIdx {
		h.NPtr[j+1]++
	}
	for j := 0; j < a.Cols; j++ {
		h.NPtr[j+1] += h.NPtr[j]
	}
	next := make([]int, a.Cols)
	copy(next, h.NPtr[:a.Cols])
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColIdx[k]
			h.NPins[next[j]] = int32(i)
			next[j]++
		}
	}
	return h
}

// CutNet returns the cut-net metric: the number of nets whose pins span
// more than one part.
func CutNet(h *Hypergraph, part []int32) int {
	cut := 0
	for n := 0; n < h.Nets; n++ {
		pins := h.Pins(n)
		if len(pins) == 0 {
			continue
		}
		first := part[pins[0]]
		for _, v := range pins[1:] {
			if part[v] != first {
				cut++
				break
			}
		}
	}
	return cut
}
