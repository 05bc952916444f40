package cholesky

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"sparseorder/internal/gen"
	"sparseorder/internal/reorder"
	"sparseorder/internal/sparse"
	"sparseorder/internal/spmv"
)

// multiply reconstructs A = L·Lᵀ densely (small matrices only).
func multiply(f *Factor) [][]float64 {
	n := f.N
	l := make([][]float64, n)
	for i := range l {
		l[i] = make([]float64, n)
	}
	for j := 0; j < n; j++ {
		for p := f.ColPtr[j]; p < f.ColPtr[j+1]; p++ {
			l[f.RowIdx[p]][j] = f.Val[p]
		}
	}
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				a[i][j] += l[i][k] * l[j][k]
			}
		}
	}
	return a
}

func denseOf(a *sparse.CSR) [][]float64 {
	d := make([][]float64, a.Rows)
	for i := range d {
		d[i] = make([]float64, a.Cols)
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			d[i][a.ColIdx[k]] = a.Val[k]
		}
	}
	return d
}

// spdify returns a copy of the symmetric matrix with its diagonal raised
// to strict diagonal dominance, guaranteeing positive definiteness.
func spdify(a *sparse.CSR) *sparse.CSR {
	c := *a // shares the pattern; only the values change
	c.Val = slices.Clone(a.Val)
	b := &c
	for i := 0; i < b.Rows; i++ {
		off := 0.0
		diagK := -1
		for k := b.RowPtr[i]; k < b.RowPtr[i+1]; k++ {
			if int(b.ColIdx[k]) == i {
				diagK = k
			} else {
				off += math.Abs(b.Val[k])
			}
		}
		if diagK >= 0 {
			b.Val[diagK] = off + 1
		}
	}
	return b
}

func TestFactorizeKnown2x2(t *testing.T) {
	// [4 2; 2 3] = L·Lᵀ with L = [2 0; 1 sqrt(2)].
	coo := sparse.NewCOO(2, 2, 4)
	coo.Append(0, 0, 4)
	coo.Append(0, 1, 2)
	coo.Append(1, 0, 2)
	coo.Append(1, 1, 3)
	a, _ := coo.ToCSR()
	f, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	if f.Val[f.ColPtr[0]] != 2 {
		t.Errorf("L(0,0) = %v, want 2", f.Val[f.ColPtr[0]])
	}
	if math.Abs(f.Val[f.ColPtr[1]]-math.Sqrt(2)) > 1e-12 {
		t.Errorf("L(1,1) = %v, want sqrt(2)", f.Val[f.ColPtr[1]])
	}
}

func TestFactorizeReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(25)
		a := spdify(randomSymmetric(rng, n, 3*n))
		f, err := Factorize(a)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := multiply(f)
		want := denseOf(a)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(got[i][j]-want[i][j]) > 1e-8*(1+math.Abs(want[i][j])) {
					t.Fatalf("trial %d: (L·Lᵀ)[%d][%d] = %v, want %v", trial, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}

func TestFactorizeMatchesSymbolicCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := spdify(randomSymmetric(rng, 60, 150))
	f, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	want, err := FactorNNZ(a)
	if err != nil {
		t.Fatal(err)
	}
	if int64(f.NNZ()) != want {
		t.Errorf("numeric nnz(L) = %d, symbolic %d", f.NNZ(), want)
	}
}

func TestSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := gen.Grid2D(12, 12)
	n := a.Rows
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	spmv.Serial(a, xTrue, b)
	f, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(x[i]-xTrue[i]) > 1e-8 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], xTrue[i])
		}
	}
	if _, err := f.Solve(b[:2]); err == nil {
		t.Error("accepted wrong-length rhs")
	}
}

func TestSolveUnderReordering(t *testing.T) {
	// Solving the permuted system must give the permuted solution.
	a := gen.Scramble(gen.Grid2D(10, 10), 4)
	n := a.Rows
	rng := rand.New(rand.NewSource(5))
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	spmv.Serial(a, xTrue, b)

	perm, err := reorder.Compute(reorder.AMD, a, reorder.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pa, err := sparse.PermuteSymmetricWorkers(a, perm, 1)
	if err != nil {
		t.Fatal(err)
	}
	pb := make([]float64, n)
	for newI, oldI := range perm {
		pb[newI] = b[oldI]
	}
	f, err := Factorize(pa)
	if err != nil {
		t.Fatal(err)
	}
	px, err := f.Solve(pb)
	if err != nil {
		t.Fatal(err)
	}
	for newI, oldI := range perm {
		if math.Abs(px[newI]-xTrue[oldI]) > 1e-8 {
			t.Fatalf("permuted solve wrong at %d", newI)
		}
	}
}

func TestFactorizeRejectsIndefinite(t *testing.T) {
	coo := sparse.NewCOO(2, 2, 4)
	coo.Append(0, 0, 1)
	coo.Append(0, 1, 5)
	coo.Append(1, 0, 5)
	coo.Append(1, 1, 1)
	a, _ := coo.ToCSR()
	if _, err := Factorize(a); err == nil {
		t.Error("accepted an indefinite matrix")
	}
}

func TestFactorizeRejectsRectangular(t *testing.T) {
	coo := sparse.NewCOO(2, 3, 1)
	coo.Append(0, 0, 1)
	a, _ := coo.ToCSR()
	if _, err := Factorize(a); err == nil {
		t.Error("accepted rectangular matrix")
	}
}

func TestFlopCountOrderingSensitivity(t *testing.T) {
	// AMD must reduce the factorisation flops of a scrambled grid by a
	// large factor — the quantity fill-reducing orderings exist to lower.
	a := gen.Scramble(gen.Grid2D(16, 16), 6)
	flOrig, err := FlopCount(a)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := reorder.Apply(reorder.AMD, a, reorder.Options{})
	if err != nil {
		t.Fatal(err)
	}
	flAMD, err := FlopCount(b)
	if err != nil {
		t.Fatal(err)
	}
	if flAMD*2 >= flOrig {
		t.Errorf("AMD flops %d not well below original %d", flAMD, flOrig)
	}
}
