package sparseorder_test

import (
	"bytes"
	"math"
	"testing"

	"sparseorder"
)

// TestFacadeQuickstart exercises the public API end to end the way the
// README quickstart does.
func TestFacadeQuickstart(t *testing.T) {
	coll := sparseorder.Collection(sparseorder.ScaleTest, 42)
	if len(coll) == 0 {
		t.Fatal("empty collection")
	}
	var a *sparseorder.Matrix
	for _, m := range coll {
		if m.Name == "grid2d_perm" {
			a = m.A
		}
	}
	if a == nil {
		t.Fatal("grid2d_perm missing from collection")
	}

	b, perm, err := sparseorder.Reorder(sparseorder.GP, a, sparseorder.OrderingOptions{Parts: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !perm.IsValid() || b.NNZ() != a.NNZ() {
		t.Fatal("reordering broke the matrix")
	}

	before := sparseorder.ComputeFeatures(a, 16, 16)
	after := sparseorder.ComputeFeatures(b, 16, 16)
	if after.OffDiagNNZ >= before.OffDiagNNZ {
		t.Errorf("GP did not reduce off-diagonal nnz: %d -> %d", before.OffDiagNNZ, after.OffDiagNNZ)
	}

	x := make([]float64, b.Cols)
	for i := range x {
		x[i] = float64(i % 7)
	}
	want := make([]float64, b.Rows)
	sparseorder.SpMV(b, x, want)
	got := make([]float64, b.Rows)
	sparseorder.SpMV1D(b, x, got, 4)
	for i := range want {
		if math.Abs(want[i]-got[i]) > 1e-9 {
			t.Fatal("1D kernel disagrees with serial")
		}
	}
	plan, err := sparseorder.NewPlan2D(b, 4)
	if err != nil {
		t.Fatal(err)
	}
	sparseorder.SpMV2D(b, x, got, plan)
	for i := range want {
		if math.Abs(want[i]-got[i]) > 1e-9 {
			t.Fatal("2D kernel disagrees with serial")
		}
	}
}

func TestFacadeOrderings(t *testing.T) {
	if len(sparseorder.Orderings) != 6 {
		t.Fatalf("expected 6 orderings, got %d", len(sparseorder.Orderings))
	}
	a := sparseorder.Collection(sparseorder.ScaleTest, 1)[0].A
	for _, alg := range sparseorder.Orderings {
		p, err := sparseorder.ComputeOrdering(alg, a, sparseorder.OrderingOptions{Parts: 8})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if !p.IsValid() {
			t.Fatalf("%s: invalid permutation", alg)
		}
	}
}

func TestFacadeMatrixMarketRoundTrip(t *testing.T) {
	coo := sparseorder.NewCOO(3, 3, 3)
	coo.Append(0, 1, 2.5)
	coo.Append(2, 0, -1)
	coo.Append(1, 1, 4)
	a, err := coo.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sparseorder.WriteMatrixMarket(&buf, a); err != nil {
		t.Fatal(err)
	}
	b, err := sparseorder.ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("round trip changed matrix")
	}
}

func TestFacadeMachines(t *testing.T) {
	if len(sparseorder.Machines()) != 8 {
		t.Fatal("expected the study's 8 machines")
	}
	m, ok := sparseorder.MachineByName("Milan B")
	if !ok {
		t.Fatal("Milan B missing")
	}
	a := sparseorder.Collection(sparseorder.ScaleTest, 1)[0].A
	p := sparseorder.PredictSpMV(a, m, sparseorder.Kernel1D)
	if p.Gflops <= 0 {
		t.Error("prediction not positive")
	}
}

func TestFacadeCholesky(t *testing.T) {
	var a *sparseorder.Matrix
	for _, m := range sparseorder.Collection(sparseorder.ScaleTest, 1) {
		if m.SPD {
			a = m.A
			break
		}
	}
	if a == nil {
		t.Fatal("no SPD matrix in collection")
	}
	r, err := sparseorder.FillRatio(a)
	if err != nil || r < 0.5 {
		t.Fatalf("fill ratio %v, err %v", r, err)
	}
	counts, err := sparseorder.CholeskyColCounts(a)
	if err != nil || len(counts) != a.Rows {
		t.Fatalf("col counts: %v", err)
	}
	parent, err := sparseorder.EliminationTree(a)
	if err != nil || len(parent) != a.Rows {
		t.Fatalf("etree: %v", err)
	}
	s, err := sparseorder.Symmetrize(a)
	if err != nil || !s.IsStructurallySymmetric() {
		t.Fatalf("symmetrize: %v", err)
	}
}

func TestFacadePermutations(t *testing.T) {
	a := sparseorder.Collection(sparseorder.ScaleTest, 1)[0].A
	p, err := sparseorder.ComputeOrdering(sparseorder.RCM, a, sparseorder.OrderingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sparseorder.PermuteSymmetric(a, p); err != nil {
		t.Fatal(err)
	}
	if _, err := sparseorder.PermuteRows(a, p); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeMergeKernel(t *testing.T) {
	a := sparseorder.Collection(sparseorder.ScaleTest, 1)[0].A
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = float64(i%5) - 2
	}
	want := make([]float64, a.Rows)
	sparseorder.SpMV(a, x, want)
	p, err := sparseorder.NewPlanMerge(a, 6)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, a.Rows)
	sparseorder.SpMVMerge(a, x, got, p)
	for i := range want {
		if math.Abs(want[i]-got[i]) > 1e-9 {
			t.Fatal("merge kernel disagrees with serial")
		}
	}
}

func TestFacadeCholeskyFactorize(t *testing.T) {
	var a *sparseorder.Matrix
	for _, m := range sparseorder.Collection(sparseorder.ScaleTest, 1) {
		if m.Name == "grid2d" {
			a = m.A
		}
	}
	f, err := sparseorder.CholeskyFactorize(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	x, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	// Residual check: A·x ≈ b.
	ax := make([]float64, a.Rows)
	sparseorder.SpMV(a, x, ax)
	for i := range ax {
		if math.Abs(ax[i]-b[i]) > 1e-7 {
			t.Fatalf("solve residual too large at %d: %v", i, ax[i]-b[i])
		}
	}
	if _, err := sparseorder.CholeskyFlops(a); err != nil {
		t.Fatal(err)
	}
}
