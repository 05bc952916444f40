package spmv

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"sparseorder/internal/sparse"
)

func randomCSR(rng *rand.Rand, rows, cols, nnz int) *sparse.CSR {
	coo := sparse.NewCOO(rows, cols, nnz)
	for k := 0; k < nnz; k++ {
		coo.Append(rng.Intn(rows), rng.Intn(cols), rng.NormFloat64())
	}
	a, err := coo.ToCSR()
	if err != nil {
		panic(err)
	}
	return a
}

func randomVec(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func vecsClose(a, b []float64) bool {
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9*(1+math.Abs(a[i])) {
			return false
		}
	}
	return true
}

// mul2DFresh multiplies with a throwaway plan built for a.
func mul2DFresh(a *sparse.CSR, x, y []float64, threads int) error {
	p, err := NewPlan2D(a, threads)
	if err != nil {
		return err
	}
	return Mul2D(a, x, y, p)
}

func TestSerialKnown(t *testing.T) {
	coo := sparse.NewCOO(2, 3, 3)
	coo.Append(0, 0, 2)
	coo.Append(0, 2, 1)
	coo.Append(1, 1, -3)
	a, _ := coo.ToCSR()
	x := []float64{1, 2, 3}
	y := make([]float64, 2)
	Serial(a, x, y)
	if y[0] != 5 || y[1] != -6 {
		t.Errorf("y = %v, want [5 -6]", y)
	}
}

func TestMul1DMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		rows := 1 + rng.Intn(100)
		cols := 1 + rng.Intn(100)
		a := randomCSR(rng, rows, cols, rng.Intn(500))
		x := randomVec(rng, cols)
		want := make([]float64, rows)
		Serial(a, x, want)
		for _, threads := range []int{1, 2, 3, 7, 16, rows + 5} {
			got := make([]float64, rows)
			Mul1D(a, x, got, threads)
			if !vecsClose(want, got) {
				t.Fatalf("Mul1D(threads=%d) mismatch on %dx%d nnz=%d", threads, rows, cols, a.NNZ())
			}
		}
	}
}

func TestMul2DMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		rows := 1 + rng.Intn(100)
		cols := 1 + rng.Intn(100)
		a := randomCSR(rng, rows, cols, rng.Intn(500))
		x := randomVec(rng, cols)
		want := make([]float64, rows)
		Serial(a, x, want)
		for _, threads := range []int{1, 2, 3, 7, 16, 33} {
			p, err := NewPlan2D(a, threads)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]float64, rows)
			Mul2D(a, x, got, p)
			if !vecsClose(want, got) {
				t.Fatalf("Mul2D(threads=%d) mismatch on %dx%d nnz=%d", threads, rows, cols, a.NNZ())
			}
			// Plans must be reusable.
			Mul2D(a, x, got, p)
			if !vecsClose(want, got) {
				t.Fatalf("Mul2D plan reuse mismatch (threads=%d)", threads)
			}
		}
	}
}

func TestMul2DQuick(t *testing.T) {
	f := func(seed int64, rowsRaw, colsRaw, nnzRaw uint16, threadsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := int(rowsRaw%200) + 1
		cols := int(colsRaw%200) + 1
		a := randomCSR(rng, rows, cols, int(nnzRaw%1000))
		x := randomVec(rng, cols)
		threads := int(threadsRaw%32) + 1
		want := make([]float64, rows)
		Serial(a, x, want)
		got := make([]float64, rows)
		if err := mul2DFresh(a, x, got, threads); err != nil {
			return false
		}
		return vecsClose(want, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMul2DRowSpanningManyThreads(t *testing.T) {
	// One enormous row split across every thread plus trailing small rows.
	coo := sparse.NewCOO(4, 50, 60)
	rng := rand.New(rand.NewSource(3))
	for j := 0; j < 50; j++ {
		coo.Append(0, j, rng.NormFloat64())
	}
	coo.Append(2, 3, 1.5)
	coo.Append(3, 7, -2.5)
	a, _ := coo.ToCSR()
	x := randomVec(rng, 50)
	want := make([]float64, 4)
	Serial(a, x, want)
	for _, threads := range []int{2, 5, 13} {
		got := make([]float64, 4)
		if err := mul2DFresh(a, x, got, threads); err != nil {
			t.Fatal(err)
		}
		if !vecsClose(want, got) {
			t.Fatalf("threads=%d: got %v want %v", threads, got, want)
		}
	}
}

func TestMul2DEmptyRowsAtBoundaries(t *testing.T) {
	// Rows 1, 2 and 4 are empty; splits land between nonzeros.
	coo := sparse.NewCOO(5, 5, 4)
	coo.Append(0, 0, 1)
	coo.Append(0, 1, 1)
	coo.Append(3, 2, 1)
	coo.Append(3, 3, 1)
	a, _ := coo.ToCSR()
	x := []float64{1, 1, 1, 1, 1}
	want := make([]float64, 5)
	Serial(a, x, want)
	for threads := 1; threads <= 6; threads++ {
		got := []float64{9, 9, 9, 9, 9} // poison: zeroing must happen
		if err := mul2DFresh(a, x, got, threads); err != nil {
			t.Fatal(err)
		}
		if !vecsClose(want, got) {
			t.Fatalf("threads=%d: got %v want %v", threads, got, want)
		}
	}
}

func TestPlan2DBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomCSR(rng, 200, 200, 5000)
	for _, threads := range []int{2, 7, 16, 128} {
		p, err := NewPlan2D(a, threads)
		if err != nil {
			t.Fatal(err)
		}
		nnz := p.ThreadNNZ()
		total := 0
		for _, n := range nnz {
			total += n
			if d := n - a.NNZ()/threads; d < -1 || d > 1 {
				t.Errorf("threads=%d: thread nnz %d deviates from %d by more than 1", threads, n, a.NNZ()/threads)
			}
		}
		if total != a.NNZ() {
			t.Errorf("threads=%d: thread nnz sums to %d, want %d", threads, total, a.NNZ())
		}
	}
}

func TestRowBlocks1D(t *testing.T) {
	b := RowBlocks1D(10, 3)
	if b[0] != 0 || b[3] != 10 {
		t.Errorf("blocks = %v", b)
	}
	for t2 := 0; t2 < 3; t2++ {
		if b[t2] > b[t2+1] {
			t.Errorf("non-monotone blocks %v", b)
		}
	}
}

func TestThreadNNZ1D(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomCSR(rng, 64, 64, 600)
	nnz := ThreadNNZ1D(a, 8)
	total := 0
	for _, n := range nnz {
		total += n
	}
	if total != a.NNZ() {
		t.Errorf("1D thread nnz sums to %d, want %d", total, a.NNZ())
	}
}

func TestPermutedSpMVConsistency(t *testing.T) {
	// (P·A·Pᵀ)·(P·x) = P·(A·x): reordering must not change SpMV results.
	rng := rand.New(rand.NewSource(6))
	n := 60
	a := randomCSR(rng, n, n, 700)
	x := randomVec(rng, n)
	p := sparse.Perm(rng.Perm(n))
	b, err := sparse.PermuteSymmetricWorkers(a, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	px := make([]float64, n)
	for newI, oldI := range p {
		px[newI] = x[oldI]
	}
	y := make([]float64, n)
	Serial(a, x, y)
	py := make([]float64, n)
	Serial(b, px, py)
	for newI, oldI := range p {
		if math.Abs(py[newI]-y[oldI]) > 1e-9 {
			t.Fatalf("permuted SpMV differs at %d", newI)
		}
	}
}

func TestGflops(t *testing.T) {
	if g := Gflops(1e9, 2.0); math.Abs(g-1) > 1e-12 {
		t.Errorf("Gflops = %v, want 1", g)
	}
	if g := Gflops(100, 0); g != 0 {
		t.Errorf("Gflops with zero time = %v, want 0", g)
	}
}

func TestNewPlan2DRejectsBadThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomCSR(rng, 4, 4, 6)
	if _, err := NewPlan2D(a, 0); err == nil {
		t.Error("accepted 0 threads")
	}
}

// Both plan constructors must report the rejected thread count in the
// error text; the merge kernel's threadsError used to drop its stored
// value, making "got 0" and "got -8" indistinguishable in study logs.
func TestBadThreadsErrorReportsValue(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomCSR(rng, 4, 4, 6)
	for _, threads := range []int{0, -8} {
		want := fmt.Sprintf("got %d", threads)
		if _, err := NewPlan2D(a, threads); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("NewPlan2D(%d) error = %v, want it to contain %q", threads, err, want)
		}
		if _, err := NewPlanMerge(a, threads); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("NewPlanMerge(%d) error = %v, want it to contain %q", threads, err, want)
		}
	}
}

func TestMul2DAtomicMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 30; trial++ {
		rows := 1 + rng.Intn(80)
		cols := 1 + rng.Intn(80)
		a := randomCSR(rng, rows, cols, rng.Intn(400))
		x := randomVec(rng, cols)
		want := make([]float64, rows)
		Serial(a, x, want)
		for _, threads := range []int{1, 3, 8, 17} {
			p, err := NewPlan2D(a, threads)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]float64, rows)
			Mul2DAtomic(a, x, got, p)
			if !vecsClose(want, got) {
				t.Fatalf("Mul2DAtomic(threads=%d) mismatch on %dx%d", threads, rows, cols)
			}
		}
	}
}

func TestAtomicAddConcurrent(t *testing.T) {
	var sum float64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				atomicAdd(&sum, 0.5)
			}
		}()
	}
	wg.Wait()
	if sum != 4000 {
		t.Errorf("atomicAdd lost updates: %v", sum)
	}
}

func TestMulMergeMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		rows := 1 + rng.Intn(120)
		cols := 1 + rng.Intn(120)
		a := randomCSR(rng, rows, cols, rng.Intn(600))
		x := randomVec(rng, cols)
		want := make([]float64, rows)
		Serial(a, x, want)
		for _, threads := range []int{1, 2, 5, 9, 31} {
			p, err := NewPlanMerge(a, threads)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]float64, rows)
			MulMerge(a, x, got, p)
			if !vecsClose(want, got) {
				t.Fatalf("MulMerge(threads=%d) mismatch on %dx%d nnz=%d", threads, rows, cols, a.NNZ())
			}
			MulMerge(a, x, got, p) // plan reuse
			if !vecsClose(want, got) {
				t.Fatalf("MulMerge plan reuse mismatch (threads=%d)", threads)
			}
		}
	}
}

func TestMulMergeManyEmptyRows(t *testing.T) {
	// The merge kernel's advantage over the plain 2D split: empty rows
	// count as work, so threads do not pile onto the nonzero rows.
	coo := sparse.NewCOO(1000, 10, 30)
	rng := rand.New(rand.NewSource(10))
	for k := 0; k < 30; k++ {
		coo.Append(rng.Intn(20), rng.Intn(10), rng.NormFloat64())
	}
	a, _ := coo.ToCSR()
	x := randomVec(rng, 10)
	want := make([]float64, 1000)
	Serial(a, x, want)
	for _, threads := range []int{2, 7, 16} {
		p, err := NewPlanMerge(a, threads)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, 1000)
		for i := range got {
			got[i] = 99 // poison: the kernel must write every row
		}
		MulMerge(a, x, got, p)
		if !vecsClose(want, got) {
			t.Fatalf("threads=%d mismatch", threads)
		}
	}
}

func TestMulMergeGiantRow(t *testing.T) {
	coo := sparse.NewCOO(3, 200, 210)
	rng := rand.New(rand.NewSource(11))
	for j := 0; j < 200; j++ {
		coo.Append(1, j, rng.NormFloat64())
	}
	coo.Append(0, 5, 2)
	coo.Append(2, 9, -3)
	a, _ := coo.ToCSR()
	x := randomVec(rng, 200)
	want := make([]float64, 3)
	Serial(a, x, want)
	for _, threads := range []int{2, 8, 16} {
		got := make([]float64, 3)
		p, err := NewPlanMerge(a, threads)
		if err != nil {
			t.Fatal(err)
		}
		MulMerge(a, x, got, p)
		if !vecsClose(want, got) {
			t.Fatalf("threads=%d: got %v want %v", threads, got, want)
		}
	}
}

func TestMergePathSearchInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randomCSR(rng, 50, 50, 300)
	total := a.Rows + a.NNZ()
	prevI, prevK := 0, 0
	for d := 0; d <= total; d++ {
		i := mergePathSearch(a.RowPtr, a.Rows, a.NNZ(), d)
		k := d - i
		if i < prevI || k < prevK {
			t.Fatalf("merge path not monotone at d=%d", d)
		}
		if k < 0 || k > a.NNZ() || i < 0 || i > a.Rows {
			t.Fatalf("coordinates out of range at d=%d: (%d,%d)", d, i, k)
		}
		if i < a.Rows && (k < a.RowPtr[i] || k > a.RowPtr[i+1]) {
			t.Fatalf("nonzero coordinate %d outside row %d's range [%d,%d]", k, i, a.RowPtr[i], a.RowPtr[i+1])
		}
		prevI, prevK = i, k
	}
}

func TestNewPlanMergeRejectsBadThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randomCSR(rng, 4, 4, 6)
	if _, err := NewPlanMerge(a, 0); err == nil {
		t.Error("accepted 0 threads")
	}
}

// TestShortVectorsRejected checks that every entry point reports a short x
// or y as an error from the calling goroutine instead of an index
// out-of-range panic inside a worker (which would kill the process).
func TestShortVectorsRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a := randomCSR(rng, 20, 30, 80)
	p2, err := NewPlan2D(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := NewPlanMerge(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	okX, okY := randomVec(rng, a.Cols), make([]float64, a.Rows)
	cases := []struct {
		name string
		call func(x, y []float64) error
		x, y []float64
	}{
		{"Serial", func(x, y []float64) error { return Serial(a, x, y) }, okX, okY},
		{"Mul1D", func(x, y []float64) error { return Mul1D(a, x, y, 4) }, okX, okY},
		{"Mul2D", func(x, y []float64) error { return Mul2D(a, x, y, p2) }, okX, okY},
		{"Mul2DAtomic", func(x, y []float64) error { return Mul2DAtomic(a, x, y, p2) }, okX, okY},
		{"MulMerge", func(x, y []float64) error { return MulMerge(a, x, y, pm) }, okX, okY},
		{"SerialDot", func(x, y []float64) error { _, err := SerialDot(a, x, y); return err }, okX, okY},
	}
	for _, c := range cases {
		if err := c.call(c.x, c.y); err != nil {
			t.Errorf("%s rejected correctly sized vectors: %v", c.name, err)
		}
		if err := c.call(c.x[:len(c.x)-1], c.y); err == nil {
			t.Errorf("%s accepted short x", c.name)
		}
		if err := c.call(c.x, c.y[:len(c.y)-1]); err == nil {
			t.Errorf("%s accepted short y", c.name)
		}
	}
	// SerialDot also weights each row i by x[i], so on a tall matrix x
	// must cover the rows, not just the columns.
	tall := randomCSR(rng, 30, 20, 80)
	if _, err := SerialDot(tall, randomVec(rng, 20), make([]float64, 30)); err == nil {
		t.Error("SerialDot accepted an x shorter than a.Rows")
	}
	if _, err := SerialDot(tall, randomVec(rng, 30), make([]float64, 30)); err != nil {
		t.Errorf("SerialDot rejected an x covering a.Rows: %v", err)
	}
}

// TestStalePlanRejected checks the plan/matrix consistency guard: a plan
// built for one matrix must not silently compute garbage on another.
func TestStalePlanRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	a := randomCSR(rng, 30, 30, 200)
	b := randomCSR(rng, 30, 30, 100) // same shape, different structure
	x := randomVec(rng, 30)
	y := make([]float64, 30)

	p2, err := NewPlan2D(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := Mul2D(b, x, y, p2); err == nil {
		t.Error("Mul2D accepted a plan built for a different matrix")
	}
	if err := Mul2DAtomic(b, x, y, p2); err == nil {
		t.Error("Mul2DAtomic accepted a plan built for a different matrix")
	}
	pm, err := NewPlanMerge(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := MulMerge(b, x, y, pm); err == nil {
		t.Error("MulMerge accepted a plan built for a different matrix")
	}

	// A malformed (hand-built) plan is rejected too.
	bad := &Plan2D{Threads: 4, KSplit: []int{0, a.NNZ()}, RowStart: []int{0, a.Rows}}
	if err := Mul2D(a, x, y, bad); err == nil {
		t.Error("Mul2D accepted a malformed plan")
	}
}
