package sparse

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// Clone returns a deep copy of the matrix.
func (a *CSR) Clone() *CSR {
	b := &CSR{
		Rows:   a.Rows,
		Cols:   a.Cols,
		RowPtr: make([]int, len(a.RowPtr)),
		ColIdx: make([]int32, len(a.ColIdx)),
		Val:    make([]float64, len(a.Val)),
	}
	copy(b.RowPtr, a.RowPtr)
	copy(b.ColIdx, a.ColIdx)
	copy(b.Val, a.Val)
	return b
}

// small returns the 3x3 matrix
//
//	[1 0 2]
//	[0 3 0]
//	[4 0 5]
func small(t *testing.T) *CSR {
	t.Helper()
	coo := NewCOO(3, 3, 5)
	coo.Append(0, 0, 1)
	coo.Append(0, 2, 2)
	coo.Append(1, 1, 3)
	coo.Append(2, 0, 4)
	coo.Append(2, 2, 5)
	a, err := coo.ToCSR()
	if err != nil {
		t.Fatalf("ToCSR: %v", err)
	}
	return a
}

func randomCSR(rng *rand.Rand, rows, cols, nnz int) *CSR {
	coo := NewCOO(rows, cols, nnz)
	for k := 0; k < nnz; k++ {
		coo.Append(rng.Intn(rows), rng.Intn(cols), rng.NormFloat64())
	}
	a, err := coo.ToCSR()
	if err != nil {
		panic(err)
	}
	return a
}

func TestToCSRBasic(t *testing.T) {
	a := small(t)
	if a.NNZ() != 5 {
		t.Fatalf("NNZ = %d, want 5", a.NNZ())
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	wantPtr := []int{0, 2, 3, 5}
	if !reflect.DeepEqual(a.RowPtr, wantPtr) {
		t.Errorf("RowPtr = %v, want %v", a.RowPtr, wantPtr)
	}
	wantCols := []int32{0, 2, 1, 0, 2}
	if !reflect.DeepEqual(a.ColIdx, wantCols) {
		t.Errorf("ColIdx = %v, want %v", a.ColIdx, wantCols)
	}
	wantVals := []float64{1, 2, 3, 4, 5}
	if !reflect.DeepEqual(a.Val, wantVals) {
		t.Errorf("Val = %v, want %v", a.Val, wantVals)
	}
}

func TestToCSRSumsDuplicates(t *testing.T) {
	coo := NewCOO(2, 2, 4)
	coo.Append(0, 1, 1)
	coo.Append(0, 1, 2)
	coo.Append(1, 0, 5)
	coo.Append(0, 1, 3)
	a, err := coo.ToCSR()
	if err != nil {
		t.Fatalf("ToCSR: %v", err)
	}
	if a.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2 after duplicate summing", a.NNZ())
	}
	cols, vals := a.Row(0)
	if cols[0] != 1 || vals[0] != 6 {
		t.Errorf("row 0 = (%v, %v), want col 1 value 6", cols, vals)
	}
}

func TestToCSRRejectsOutOfRange(t *testing.T) {
	coo := NewCOO(2, 2, 1)
	coo.Append(0, 5, 1)
	if _, err := coo.ToCSR(); err == nil {
		t.Fatal("ToCSR accepted out-of-range column")
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	a := small(t)
	a.ColIdx[0] = 99
	if err := a.Validate(); err == nil {
		t.Error("Validate accepted out-of-range column")
	}
	a = small(t)
	a.ColIdx[0], a.ColIdx[1] = a.ColIdx[1], a.ColIdx[0]
	if err := a.Validate(); err == nil {
		t.Error("Validate accepted unsorted columns")
	}
	a = small(t)
	a.RowPtr[1] = 4
	a.RowPtr[2] = 3
	if err := a.Validate(); err == nil {
		t.Error("Validate accepted non-monotone RowPtr")
	}
}

func TestTransposeKnown(t *testing.T) {
	a := small(t)
	at := a.Transpose()
	if err := at.Validate(); err != nil {
		t.Fatalf("transpose invalid: %v", err)
	}
	// Aᵀ[0] should be {0:1, 2:4}.
	cols, vals := at.Row(0)
	if len(cols) != 2 || cols[0] != 0 || vals[0] != 1 || cols[1] != 2 || vals[1] != 4 {
		t.Errorf("Aᵀ row 0 = (%v, %v)", cols, vals)
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		a := randomCSR(rng, 1+rng.Intn(30), 1+rng.Intn(30), rng.Intn(150))
		if !a.Transpose().Transpose().Equal(a) {
			t.Fatal("transpose twice != identity")
		}
	}
}

func TestSymmetrizeProducesSymmetricPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(25)
		a := randomCSR(rng, n, n, rng.Intn(120))
		s, err := Symmetrize(a)
		if err != nil {
			t.Fatalf("Symmetrize: %v", err)
		}
		if !s.IsStructurallySymmetric() {
			t.Fatal("A+Aᵀ not structurally symmetric")
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("Validate: %v", err)
		}
	}
}

func TestSymmetrizeRejectsRectangular(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomCSR(rng, 3, 4, 5)
	if _, err := Symmetrize(a); err == nil {
		t.Error("Symmetrize accepted rectangular matrix")
	}
}

func TestAddValues(t *testing.T) {
	a := small(t)
	c, err := Add(a, a)
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	for k := range c.Val {
		if c.Val[k] != 2*a.Val[k] {
			t.Fatalf("A+A value mismatch at %d", k)
		}
	}
}

func TestPermIsValid(t *testing.T) {
	if !Identity(5).IsValid() {
		t.Error("identity should be valid")
	}
	if (Perm{0, 0, 1}).IsValid() {
		t.Error("repeated entry accepted")
	}
	if (Perm{0, 3}).IsValid() {
		t.Error("out-of-range entry accepted")
	}
	if !(Perm{}).IsValid() {
		t.Error("empty permutation should be valid")
	}
}

func TestPermInverseProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := Perm(rand.New(rand.NewSource(seed)).Perm(n))
		inv := p.Inverse()
		for i := range p {
			if inv[p[i]] != i || p[inv[i]] != i {
				return false
			}
		}
		return inv.IsValid()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPermuteSymmetricRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(30)
		a := randomCSR(rng, n, n, rng.Intn(200))
		p := Perm(rng.Perm(n))
		b, err := PermuteSymmetricWorkers(a, p, 1)
		if err != nil {
			t.Fatalf("PermuteSymmetricWorkers: %v", err)
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("permuted invalid: %v", err)
		}
		back, err := PermuteSymmetricWorkers(b, p.Inverse(), 1)
		if err != nil {
			t.Fatalf("inverse permute: %v", err)
		}
		if !back.Equal(a) {
			t.Fatal("permute then inverse-permute != original")
		}
	}
}

func TestPermuteSymmetricKnown(t *testing.T) {
	a := small(t)
	// Reverse ordering: new row 0 = old row 2, etc.
	p := Perm{2, 1, 0}
	b, err := PermuteSymmetricWorkers(a, p, 1)
	if err != nil {
		t.Fatalf("PermuteSymmetricWorkers: %v", err)
	}
	// b[0][0] = a[2][2] = 5, b[0][2] = a[2][0] = 4.
	cols, vals := b.Row(0)
	if len(cols) != 2 || cols[0] != 0 || vals[0] != 5 || cols[1] != 2 || vals[1] != 4 {
		t.Errorf("permuted row 0 = (%v, %v)", cols, vals)
	}
}

func TestPermuteRowsKnown(t *testing.T) {
	a := small(t)
	p := Perm{1, 2, 0}
	b, err := PermuteRowsWorkers(a, p, 1)
	if err != nil {
		t.Fatalf("PermuteRowsWorkers: %v", err)
	}
	cols, vals := b.Row(0) // old row 1
	if len(cols) != 1 || cols[0] != 1 || vals[0] != 3 {
		t.Errorf("permuted row 0 = (%v, %v), want old row 1", cols, vals)
	}
}

func TestPermuteRejectsInvalid(t *testing.T) {
	a := small(t)
	if _, err := PermuteSymmetricWorkers(a, Perm{0, 0, 1}, 1); err == nil {
		t.Error("accepted non-bijective permutation")
	}
	if _, err := PermuteSymmetricWorkers(a, Perm{0, 1}, 1); err == nil {
		t.Error("accepted wrong-length permutation")
	}
	if _, err := PermuteRowsWorkers(a, Perm{0, 1}, 1); err == nil {
		t.Error("PermuteRowsWorkers accepted wrong-length permutation")
	}
}

func TestExpandSymmetric(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 7\n3 3 1\n"
	a, err := ReadMatrixMarketWorkers(strings.NewReader(in), 1)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if a.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3 (mirror added, diagonal not doubled)", a.NNZ())
	}
	if !a.IsStructurallySymmetric() {
		t.Error("expanded matrix not symmetric")
	}
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randomCSR(rng, 17, 13, 80)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, a); err != nil {
		t.Fatalf("write: %v", err)
	}
	b, err := ReadMatrixMarketWorkers(&buf, 1)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !a.Equal(b) {
		t.Error("round trip changed the matrix")
	}
}

func TestMatrixMarketSymmetric(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
% a comment
3 3 3
1 1 2.0
2 1 -1.0
3 3 4.0
`
	a, err := ReadMatrixMarketWorkers(strings.NewReader(in), 1)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if a.NNZ() != 4 {
		t.Fatalf("NNZ = %d, want 4 (off-diagonal mirrored)", a.NNZ())
	}
	if !a.IsStructurallySymmetric() {
		t.Error("not symmetric after expansion")
	}
}

func TestMatrixMarketPattern(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n2 1\n"
	a, err := ReadMatrixMarketWorkers(strings.NewReader(in), 1)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if a.NNZ() != 2 || a.Val[0] != 1 {
		t.Errorf("pattern read: nnz=%d val0=%v", a.NNZ(), a.Val[0])
	}
}

func TestMatrixMarketRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"not a matrix market file\n",
		"%%MatrixMarket matrix coordinate complex general\n1 1 0\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n5 5 1.0\n",
	} {
		if _, err := ReadMatrixMarketWorkers(strings.NewReader(in), 1); err == nil {
			t.Errorf("accepted %q", in[:20])
		}
	}
}

func TestWritePermutationGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePermutation(&buf, Perm{3, 1, 0, 2}); err != nil {
		t.Fatalf("write: %v", err)
	}
	want := "%%MatrixMarket matrix array integer general\n4 1\n4\n2\n1\n3\n"
	if got := buf.String(); got != want {
		t.Errorf("WritePermutation wrote %q, want %q", got, want)
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := small(t)
	b := a.Clone()
	b.Val[0] = 99
	b.ColIdx[0] = 1
	if a.Val[0] == 99 || a.ColIdx[0] == 1 {
		t.Error("Clone shares storage")
	}
}

func TestComposePermutations(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 20
	a := randomCSR(rng, n, n, 100)
	p := Perm(rng.Perm(n))
	q := Perm(rng.Perm(n))
	ap, err := PermuteRowsWorkers(a, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	apq, err := PermuteRowsWorkers(ap, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Applying p and then q is applying r with r[i] = p[q[i]].
	r := make(Perm, n)
	for i := range r {
		r[i] = p[q[i]]
	}
	direct, err := PermuteRowsWorkers(a, r, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !apq.Equal(direct) {
		t.Error("composed permutation does not match sequential application")
	}
}

func TestFromCSRRoundTripQuick(t *testing.T) {
	f := func(seed int64, rowsRaw, colsRaw, nnzRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := int(rowsRaw%40) + 1
		cols := int(colsRaw%40) + 1
		a := randomCSR(rng, rows, cols, int(nnzRaw))
		b, err := FromCSR(a).ToCSR()
		return err == nil && a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPatternEqualIgnoresValues(t *testing.T) {
	a := small(t)
	b := a.Clone()
	for k := range b.Val {
		b.Val[k] *= 3
	}
	if !a.PatternEqual(b) {
		t.Error("PatternEqual should ignore values")
	}
	if a.Equal(b) {
		t.Error("Equal should compare values")
	}
}

func TestRowAccessors(t *testing.T) {
	a := small(t)
	if a.RowNNZ(0) != 2 || a.RowNNZ(1) != 1 {
		t.Error("RowNNZ wrong")
	}
	cols, vals := a.Row(2)
	if len(cols) != 2 || vals[1] != 5 {
		t.Error("Row accessor wrong")
	}
}

func TestMatrixMarketRejectsNegativeSizes(t *testing.T) {
	for _, in := range []string{
		"%%MatrixMarket matrix coordinate real general\n-1 2 1\n1 1 1\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 -5\n1 1 1\n",
	} {
		if _, err := ReadMatrixMarketWorkers(strings.NewReader(in), 1); err == nil {
			t.Errorf("accepted negative size line: %q", in[:60])
		}
	}
}

// TestMatrixMarketRejectsWrappedIndex feeds an index that, narrowed to
// int32, would wrap back inside the matrix dimensions (4294967298-1 =
// 2^32+1 → int32 1). Before index validation moved to read time this
// silently corrupted the matrix; it must be a clear error.
func TestMatrixMarketRejectsWrappedIndex(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate real general\n" +
		"2 2 2\n" +
		"1 1 1.0\n" +
		"4294967298 1 7.0\n"
	_, err := ReadMatrixMarketWorkers(strings.NewReader(in), 1)
	if err == nil {
		t.Fatal("accepted a 64-bit row index that wraps into range")
	}
	if !strings.Contains(err.Error(), "outside 1..2") {
		t.Errorf("error %q does not name the valid range", err)
	}
}

func TestMatrixMarketRejectsOutOfRangeIndices(t *testing.T) {
	for _, entry := range []string{"0 1 1.0", "3 1 1.0", "1 0 1.0", "1 3 1.0", "-1 1 1.0"} {
		in := "%%MatrixMarket matrix coordinate real general\n2 2 1\n" + entry + "\n"
		if _, err := ReadMatrixMarketWorkers(strings.NewReader(in), 1); err == nil {
			t.Errorf("accepted entry %q on a 2x2 matrix", entry)
		}
	}
}

func TestMatrixMarketRejectsHugeDimensions(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate real general\n3000000000 2 1\n1 1 1.0\n"
	if _, err := ReadMatrixMarketWorkers(strings.NewReader(in), 1); err == nil {
		t.Error("accepted dimensions beyond the int32 index range")
	}
}

// TestMatrixMarketBannerEOFTolerance checks the banner read mirrors the
// size-line EOF tolerance: a stream that ends (without newline) right
// after the banner is judged on the banner's content.
func TestMatrixMarketBannerEOFTolerance(t *testing.T) {
	// Valid banner, nothing else: the size line is what is missing.
	_, err := ReadMatrixMarketWorkers(strings.NewReader("%%MatrixMarket matrix coordinate real general"), 1)
	if err == nil || !strings.Contains(err.Error(), "missing size line") {
		t.Errorf("banner-only stream: err = %v, want missing size line", err)
	}
	// Malformed banner, no newline: must report the malformed banner, not
	// a spurious read error.
	_, err = ReadMatrixMarketWorkers(strings.NewReader("%%MatrixMarket matrix"), 1)
	if err == nil || !strings.Contains(err.Error(), "malformed Matrix Market banner") {
		t.Errorf("truncated banner: err = %v, want malformed banner", err)
	}
	// Empty stream still reports the read failure.
	_, err = ReadMatrixMarketWorkers(strings.NewReader(""), 1)
	if err == nil || !strings.Contains(err.Error(), "reading banner") {
		t.Errorf("empty stream: err = %v, want reading banner", err)
	}
}

func TestCOOAppendOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Append silently narrowed an out-of-int32-range index")
		}
	}()
	c := NewCOO(2, 2, 1)
	c.Append(1<<32+1, 0, 1)
}
