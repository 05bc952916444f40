package gen

import (
	"testing"

	"sparseorder/internal/sparse"
)

func TestGrid2DStructure(t *testing.T) {
	a := Grid2D(4, 3)
	if a.Rows != 12 || a.Cols != 12 {
		t.Fatalf("dims %dx%d", a.Rows, a.Cols)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if !a.IsStructurallySymmetric() {
		t.Error("grid not symmetric")
	}
	// Interior vertex (1,1) has 5 entries: diagonal + 4 neighbours.
	if a.RowNNZ(1*4+1) != 5 {
		t.Errorf("interior row nnz = %d, want 5", a.RowNNZ(5))
	}
	// Corner has 3.
	if a.RowNNZ(0) != 3 {
		t.Errorf("corner row nnz = %d, want 3", a.RowNNZ(0))
	}
}

func TestGrid3DStructure(t *testing.T) {
	a := Grid3D(3, 3, 3)
	if a.Rows != 27 {
		t.Fatalf("rows = %d", a.Rows)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	// Center vertex has 7 entries.
	if a.RowNNZ(13) != 7 {
		t.Errorf("center row nnz = %d, want 7", a.RowNNZ(13))
	}
	if !a.IsStructurallySymmetric() {
		t.Error("grid3d not symmetric")
	}
}

func checkSPD(t *testing.T, a *sparse.CSR, name string) {
	t.Helper()
	if err := a.Validate(); err != nil {
		t.Fatalf("%s invalid: %v", name, err)
	}
	if !a.IsStructurallySymmetric() {
		t.Fatalf("%s not structurally symmetric", name)
	}
	// Weak diagonal dominance everywhere with strict dominance somewhere
	// (irreducible diagonal dominance) implies positive definiteness for the
	// connected symmetric patterns our generators emit; grid Laplacians are
	// only weakly dominant at interior vertices.
	strict := false
	for i := 0; i < a.Rows; i++ {
		var diag, off float64
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if int(a.ColIdx[k]) == i {
				diag = a.Val[k]
			} else {
				v := a.Val[k]
				if v < 0 {
					v = -v
				}
				off += v
			}
		}
		if diag < off {
			t.Fatalf("%s: row %d not diagonally dominant (%v < %v)", name, i, diag, off)
		}
		if diag > off {
			strict = true
		}
	}
	if !strict {
		t.Fatalf("%s: no strictly dominant row", name)
	}
}

func TestBandedSPD(t *testing.T) {
	a := Banded(200, 5, 0.5, 1)
	checkSPD(t, a, "banded")
	// Bandwidth respected.
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			d := i - int(a.ColIdx[k])
			if d < -5 || d > 5 {
				t.Fatalf("entry outside band: (%d,%d)", i, a.ColIdx[k])
			}
		}
	}
}

func TestRandomGeometricSPD(t *testing.T) {
	a := RandomGeometric(400, 0.08, 2)
	checkSPD(t, a, "geometric")
	if a.NNZ() < 400 {
		t.Error("geometric graph suspiciously empty")
	}
}

func TestErdosRenyiSPD(t *testing.T) {
	checkSPD(t, ErdosRenyi(300, 4, 3), "erdos")
}

func TestBlockCoupledSPD(t *testing.T) {
	checkSPD(t, BlockCoupled(5, 40, 10, 4), "blockcoupled")
}

func TestRMATSkewedDegrees(t *testing.T) {
	a := RMAT(9, 8, 5)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if !a.IsStructurallySymmetric() {
		t.Error("rmat not symmetric")
	}
	minR, maxR := a.RowNNZ(0), a.RowNNZ(0)
	for i := 0; i < a.Rows; i++ {
		n := a.RowNNZ(i)
		if n < minR {
			minR = n
		}
		if n > maxR {
			maxR = n
		}
	}
	if maxR < 10*(minR+1) {
		t.Errorf("R-MAT degrees not skewed: min %d max %d", minR, maxR)
	}
}

func TestWithDenseRows(t *testing.T) {
	base := Grid2D(10, 10)
	a := WithDenseRows(base, 2, 0.5, 6)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	dense := 0
	for i := 0; i < a.Rows; i++ {
		if a.RowNNZ(i) > 20 {
			dense++
		}
	}
	if dense == 0 {
		t.Error("no dense rows injected")
	}
}

func TestScramblePreservesContent(t *testing.T) {
	a := Grid2D(8, 8)
	b := Scramble(a, 7)
	if b.NNZ() != a.NNZ() || b.Rows != a.Rows {
		t.Fatal("scramble changed size")
	}
	if b.Equal(a) {
		t.Error("scramble did nothing")
	}
	if !b.IsStructurallySymmetric() {
		t.Error("symmetric scramble broke symmetry")
	}
	// Values multiset preserved: compare sums.
	sum := func(m *sparse.CSR) float64 {
		s := 0.0
		for _, v := range m.Val {
			s += v
		}
		return s
	}
	if sum(a) != sum(b) {
		t.Error("scramble changed values")
	}
}

func TestScrambleRows(t *testing.T) {
	a := Grid2D(6, 6)
	b := ScrambleRows(a, 8)
	if b.NNZ() != a.NNZ() {
		t.Fatal("row scramble changed nnz")
	}
	if b.Equal(a) {
		t.Error("row scramble did nothing")
	}
}

func TestTallSkinnyDense(t *testing.T) {
	a := TallSkinnyDense(96, 40, 9)
	if a.Rows != 96 || a.Cols != 40 || a.NNZ() != 96*40 {
		t.Fatalf("dims %dx%d nnz %d", a.Rows, a.Cols, a.NNZ())
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCollectionDeterministic(t *testing.T) {
	c1 := Collection(ScaleTest, 42)
	c2 := Collection(ScaleTest, 42)
	if len(c1) != len(c2) {
		t.Fatal("nondeterministic collection size")
	}
	for i := range c1 {
		if c1[i].Name != c2[i].Name || !c1[i].A.Equal(c2[i].A) {
			t.Fatalf("matrix %s differs between runs", c1[i].Name)
		}
	}
}

func TestCollectionCoversClasses(t *testing.T) {
	c := Collection(ScaleTest, 1)
	if len(c) < 12 {
		t.Fatalf("collection has only %d matrices", len(c))
	}
	kinds := map[string]bool{}
	for _, m := range c {
		kinds[m.Kind] = true
		if m.A.Rows != m.A.Cols {
			t.Errorf("%s not square", m.Name)
		}
		if err := m.A.Validate(); err != nil {
			t.Errorf("%s invalid: %v", m.Name, err)
		}
		if m.SPD {
			checkSPD(t, m.A, m.Name)
		}
	}
	for _, want := range []string{"fem-2d", "fem-3d", "power-law", "geometric", "random-sparse", "dense-rows"} {
		found := false
		for k := range kinds {
			if k == want || k == want+"-scrambled" {
				found = true
			}
		}
		if !found {
			t.Errorf("collection missing class %s (have %v)", want, kinds)
		}
	}
}

func TestCollectionScaleGrows(t *testing.T) {
	small := Collection(ScaleTest, 1)
	big := Collection(ScaleStudy, 1)
	var smallNNZ, bigNNZ int
	for _, m := range small {
		smallNNZ += m.A.NNZ()
	}
	for _, m := range big {
		bigNNZ += m.A.NNZ()
	}
	if bigNNZ < 4*smallNNZ {
		t.Errorf("study scale (%d nnz) not much larger than test scale (%d)", bigNNZ, smallNNZ)
	}
}

func TestNamedSets(t *testing.T) {
	if len(Fig1Set(ScaleTest, 1)) != 3 {
		t.Error("Fig1Set must have 3 matrices")
	}
	if len(Fig4Set(ScaleTest, 1)) != 6 {
		t.Error("Fig4Set must have 6 matrices")
	}
	ls := LargeSet(ScaleTest, 1)
	if len(ls) != 10 {
		t.Error("LargeSet must have 10 matrices")
	}
	for _, m := range append(append(Fig1Set(ScaleTest, 1), Fig4Set(ScaleTest, 1)...), ls...) {
		if err := m.A.Validate(); err != nil {
			t.Errorf("%s invalid: %v", m.Name, err)
		}
		if m.A.Rows != m.A.Cols {
			t.Errorf("%s not square", m.Name)
		}
	}
}

func TestDescribe(t *testing.T) {
	m := Matrix{Name: "x", Group: "g", A: Grid2D(2, 2)}
	if s := m.Describe(); len(s) == 0 {
		t.Error("empty description")
	}
}

func TestMixedStencil3D(t *testing.T) {
	a := MixedStencil3D(8, 8, 8, 0.4, 3)
	checkSPD(t, a, "mixed3d")
	// Row densities must vary strongly: some rows near 7-point, others
	// near 27-point connectivity.
	minR, maxR := a.RowNNZ(0), a.RowNNZ(0)
	for i := 0; i < a.Rows; i++ {
		n := a.RowNNZ(i)
		if n < minR {
			minR = n
		}
		if n > maxR {
			maxR = n
		}
	}
	if maxR < minR+12 {
		t.Errorf("stencil mix not diverse: rows span [%d, %d]", minR, maxR)
	}
	// Zero fraction degenerates to the plain 7-point stencil widths.
	b := MixedStencil3D(6, 6, 6, 0, 4)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < b.Rows; i++ {
		if b.RowNNZ(i) > 7 {
			t.Fatalf("fracWide=0 produced a wide row (%d nnz)", b.RowNNZ(i))
		}
	}
}

func TestClustered(t *testing.T) {
	a := Clustered(8, 50, 5, 200, 7)
	checkSPD(t, a, "clustered")
	if a.Rows != 400 {
		t.Fatalf("rows = %d", a.Rows)
	}
	// Member interleaving: vertices of one community are spread round-robin,
	// so consecutive rows belong to different communities and the natural
	// off-diagonal count is high.
	// Grouping rows by community (a k=8 partition by v%8) must leave only
	// the shortcuts as off-diagonal entries.
	n := a.Rows
	intra, inter := 0, 0
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := int(a.ColIdx[k])
			if i == j {
				continue
			}
			if i%8 == j%8 {
				intra++
			} else {
				inter++
			}
		}
	}
	if intra < 3*inter {
		t.Errorf("community structure weak: %d intra vs %d inter entries", intra, inter)
	}
	if inter == 0 {
		t.Error("no shortcuts present")
	}
}

func TestWithShortcuts(t *testing.T) {
	base := Grid2D(20, 20)
	a := WithShortcuts(base, 150, 9)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if !a.IsStructurallySymmetric() {
		t.Error("shortcuts broke symmetry")
	}
	if a.NNZ() <= base.NNZ() {
		t.Error("no shortcuts added")
	}
	// Bandwidth must blow up: shortcuts reach across the matrix.
	if bwBase, bw := maxBand(base), maxBand(a); bw < 4*bwBase {
		t.Errorf("shortcut bandwidth %d not far above grid bandwidth %d", bw, bwBase)
	}
}

func maxBand(a *sparse.CSR) int {
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

func TestRandomGeometricMortonLocality(t *testing.T) {
	// Morton numbering must give the natural ordering strong locality.
	// The max bandwidth is a poor measure for a Z-curve (quadrant seams
	// create individual long edges), so compare the mean |i-j| over all
	// entries instead: scrambling should inflate it several-fold.
	a := RandomGeometric(2000, radiusFor(2000, 6), 11)
	s := Scramble(a, 12)
	meanDist := func(m *sparse.CSR) float64 {
		var sum float64
		for i := 0; i < m.Rows; i++ {
			for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
				d := i - int(m.ColIdx[k])
				if d < 0 {
					d = -d
				}
				sum += float64(d)
			}
		}
		return sum / float64(m.NNZ())
	}
	if da, ds := meanDist(a), meanDist(s); 4*da > ds {
		t.Errorf("Morton mean distance %.0f not well below scrambled %.0f", da, ds)
	}
}

// TestParseScale round-trips every scale through its name and rejects
// names no command line may use.
func TestParseScale(t *testing.T) {
	for _, s := range []Scale{ScaleTest, ScaleStudy, ScaleLarge} {
		if got, err := ParseScale(s.String()); err != nil || got != s {
			t.Errorf("ParseScale(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	for _, name := range []string{"", "foo", "Study", "Scale(1)"} {
		if _, err := ParseScale(name); err == nil {
			t.Errorf("ParseScale(%q) accepted an unknown name", name)
		}
	}
}
