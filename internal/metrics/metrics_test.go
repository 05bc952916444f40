package metrics

import (
	"math"
	"testing"

	"sparseorder/internal/gen"
	"sparseorder/internal/sparse"
)

func build(t *testing.T, rows, cols int, entries [][3]float64) *sparse.CSR {
	t.Helper()
	coo := sparse.NewCOO(rows, cols, len(entries))
	for _, e := range entries {
		coo.Append(int(e[0]), int(e[1]), e[2])
	}
	a, err := coo.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// feat runs the production feature pass at one worker.
func feat(a *sparse.CSR, blocks int) Features {
	return ComputeWorkers(a, blocks, 1, 1)
}

func TestBandwidthKnown(t *testing.T) {
	a := build(t, 4, 4, [][3]float64{{0, 0, 1}, {1, 1, 1}, {2, 2, 1}, {3, 3, 1}})
	if bw := feat(a, 1).Bandwidth; bw != 0 {
		t.Errorf("diagonal bandwidth = %d, want 0", bw)
	}
	a = build(t, 4, 4, [][3]float64{{0, 3, 1}, {1, 1, 1}})
	if bw := feat(a, 1).Bandwidth; bw != 3 {
		t.Errorf("bandwidth = %d, want 3", bw)
	}
	a = build(t, 4, 4, [][3]float64{{3, 0, 1}})
	if bw := feat(a, 1).Bandwidth; bw != 3 {
		t.Errorf("lower-triangle bandwidth = %d, want 3", bw)
	}
}

func TestBandwidthTridiagonal(t *testing.T) {
	n := 10
	coo := sparse.NewCOO(n, n, 3*n)
	for i := 0; i < n; i++ {
		coo.Append(i, i, 2)
		if i+1 < n {
			coo.Append(i, i+1, -1)
			coo.Append(i+1, i, -1)
		}
	}
	a, _ := coo.ToCSR()
	if bw := feat(a, 1).Bandwidth; bw != 1 {
		t.Errorf("tridiagonal bandwidth = %d, want 1", bw)
	}
}

func TestProfileKnown(t *testing.T) {
	// Row 0: leftmost at 0 (distance 0); row 1 leftmost 0 (distance 1);
	// row 2 leftmost 2 (distance 0); row 3 leftmost 1 (distance 2).
	a := build(t, 4, 4, [][3]float64{
		{0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {2, 2, 1}, {3, 1, 1}, {3, 3, 1},
	})
	if p := feat(a, 1).Profile; p != 3 {
		t.Errorf("profile = %d, want 3", p)
	}
}

func TestProfileIgnoresUpperOnlyRows(t *testing.T) {
	// Row 0's leftmost entry is right of the diagonal: contributes 0.
	a := build(t, 2, 2, [][3]float64{{0, 1, 1}, {1, 1, 1}})
	if p := feat(a, 1).Profile; p != 0 {
		t.Errorf("profile = %d, want 0", p)
	}
}

func TestOffDiagonalNNZBlockDiagonal(t *testing.T) {
	// Perfect 2-block diagonal matrix: zero off-diagonal nonzeros at blocks=2.
	a := build(t, 4, 4, [][3]float64{
		{0, 0, 1}, {0, 1, 1}, {1, 0, 1}, {2, 3, 1}, {3, 2, 1},
	})
	if c := feat(a, 2).OffDiagNNZ; c != 0 {
		t.Errorf("block-diagonal off-diag count = %d, want 0", c)
	}
	// A corner entry crosses blocks.
	a = build(t, 4, 4, [][3]float64{{0, 3, 1}})
	if c := feat(a, 2).OffDiagNNZ; c != 1 {
		t.Errorf("off-diag count = %d, want 1", c)
	}
}

func TestOffDiagonalNNZDegenerate(t *testing.T) {
	a := build(t, 4, 4, [][3]float64{{0, 3, 1}})
	if c := feat(a, 1).OffDiagNNZ; c != 0 {
		t.Errorf("blocks=1 must count 0, got %d", c)
	}
}

func TestOffDiagonalEqualsEdgeCutForGrid(t *testing.T) {
	// For a symmetric matrix with zero-free diagonal, the off-diagonal count
	// at blocks=k is exactly twice the edge cut of the even row split.
	a := gen.Grid2D(8, 8)
	blocks := 4
	c := feat(a, blocks).OffDiagNNZ
	// Count crossing pairs by brute force.
	var want int64
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := int(a.ColIdx[k])
			if i*blocks/a.Rows != j*blocks/a.Cols {
				want++
			}
		}
	}
	if c != want {
		t.Errorf("off-diag = %d, brute force %d", c, want)
	}
}

func TestImbalanceFactor(t *testing.T) {
	if f := ImbalanceFactor([]int{10, 10, 10, 10}); f != 1 {
		t.Errorf("balanced factor = %v, want 1", f)
	}
	if f := ImbalanceFactor([]int{20, 10, 10, 0}); math.Abs(f-2) > 1e-12 {
		t.Errorf("factor = %v, want 2", f)
	}
	if f := ImbalanceFactor(nil); f != 1 {
		t.Errorf("empty factor = %v, want 1", f)
	}
	if f := ImbalanceFactor([]int{0, 0}); f != 1 {
		t.Errorf("all-zero factor = %v, want 1", f)
	}
}

func TestImbalance1DSkewedMatrix(t *testing.T) {
	// All nonzeros in the first row: with 4 threads, thread 0 holds all.
	coo := sparse.NewCOO(8, 8, 8)
	for j := 0; j < 8; j++ {
		coo.Append(0, j, 1)
	}
	a, _ := coo.ToCSR()
	if f := Imbalance1D(a, 4); math.Abs(f-4) > 1e-12 {
		t.Errorf("imbalance = %v, want 4", f)
	}
	if f := Imbalance1D(gen.Grid2D(16, 16), 4); f > 1.1 {
		t.Errorf("grid imbalance = %v, want ~1", f)
	}
}

func TestComputeBundlesFeatures(t *testing.T) {
	a := gen.Grid2D(8, 8)
	f := ComputeWorkers(a, 4, 4, 1)
	if f.Bandwidth != bandwidth(a) || f.Profile != profile(a) ||
		f.OffDiagNNZ != offDiagonalNNZ(a, 4) || f.Imbalance1D != Imbalance1D(a, 4) {
		t.Error("ComputeWorkers disagrees with the individual feature oracles")
	}
}
