package spmv

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"sparseorder/internal/sparse"
)

// refMul is the plain one-row loop: one accumulator per row, products
// summed in CSR order. Every kernel must reproduce its bits on every row
// a single thread owns.
func refMul(a *sparse.CSR, x, y []float64) {
	for i := 0; i < a.Rows; i++ {
		sum := 0.0
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			sum += a.Val[k] * x[a.ColIdx[k]]
		}
		y[i] = sum
	}
}

// csrWithRowLens builds a cols-column matrix whose row i holds lens[i]
// random nonzeros in ascending column order.
func csrWithRowLens(rng *rand.Rand, cols int, lens []int) *sparse.CSR {
	a := &sparse.CSR{Rows: len(lens), Cols: cols, RowPtr: make([]int, len(lens)+1)}
	for i, n := range lens {
		cs := rng.Perm(cols)[:n]
		sort.Ints(cs)
		for _, c := range cs {
			a.ColIdx = append(a.ColIdx, int32(c))
			a.Val = append(a.Val, rng.NormFloat64())
		}
		a.RowPtr[i+1] = a.RowPtr[i] + n
	}
	return a
}

// rowKernelCorpus holds the shapes a two-row step can get wrong: no rows,
// an odd row count (a lone last row), empty rows at pair and 1D thread
// boundaries, pairs of unequal length in both orders, and one giant row
// that every nonzero split cuts.
func rowKernelCorpus(t *testing.T) map[string]*sparse.CSR {
	rng := rand.New(rand.NewSource(17))
	giant := make([]int, 9)
	for i := range giant {
		giant[i] = 1 + i%3
	}
	giant[4] = 600
	corpus := map[string]*sparse.CSR{
		"no-rows":  {Rows: 0, Cols: 5, RowPtr: []int{0}},
		"odd-rows": csrWithRowLens(rng, 40, []int{5, 7, 6, 7, 5, 6, 7}),
		// 12 rows split 4/4/4 at 3 threads and 6/6 at 2: empty rows sit
		// on both sides of every thread boundary and in both pair slots.
		"empty-at-boundaries": csrWithRowLens(rng, 40, []int{3, 0, 0, 5, 0, 4, 0, 0, 6, 2, 0, 0}),
		"unequal-pairs":       csrWithRowLens(rng, 40, []int{1, 9, 9, 1, 0, 5, 5, 0, 13, 2, 2, 13, 7}),
		"giant-row":           csrWithRowLens(rng, 700, giant),
		"random":              randomCSR(rng, 97, 80, 900),
	}
	for name, a := range corpus {
		if err := a.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	return corpus
}

func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// straddled marks the rows whose nonzeros a split point cuts: split[t]
// (0 < t < threads) lies strictly inside the row's nonzero range.
func straddled(a *sparse.CSR, split []int) []bool {
	cut := make([]bool, a.Rows)
	for _, k := range split[1 : len(split)-1] {
		for r := 0; r < a.Rows; r++ {
			if a.RowPtr[r] < k && k < a.RowPtr[r+1] {
				cut[r] = true
			}
		}
	}
	return cut
}

func poisoned(n int) []float64 {
	y := make([]float64, n)
	for i := range y {
		y[i] = math.NaN()
	}
	return y
}

// TestKernelsBitIdenticalEdgeCorpus checks the row kernel's contract on
// the edge corpus: Serial, SerialDot and Mul1D equal the plain loop
// bitwise on every row (and SerialDot's sum the plain dot after it), and
// the 2D, atomic 2D and merge kernels equal it bitwise on every
// row a single thread owns. Rows cut by a split point sum their parts in
// a different order, so they only have to agree within tolerance.
func TestKernelsBitIdenticalEdgeCorpus(t *testing.T) {
	for name, a := range rowKernelCorpus(t) {
		x := randomVec(rand.New(rand.NewSource(int64(a.NNZ()))), a.Cols)
		want := make([]float64, a.Rows)
		refMul(a, x, want)
		check := func(kernel string, threads int, got []float64, cut []bool) {
			t.Helper()
			for r := range want {
				if cut != nil && cut[r] {
					continue
				}
				if !bitsEqual(got[r], want[r]) {
					t.Errorf("%s: %s threads=%d row %d = %v (bits %x), want %v (bits %x)",
						name, kernel, threads, r, got[r], math.Float64bits(got[r]), want[r], math.Float64bits(want[r]))
					return
				}
			}
			if !vecsClose(want, got) {
				t.Errorf("%s: %s threads=%d straddled rows outside tolerance: got %v want %v", name, kernel, threads, got, want)
			}
		}

		got := poisoned(a.Rows)
		if err := Serial(a, x, got); err != nil {
			t.Fatal(err)
		}
		check("Serial", 1, got, nil)
		if a.Rows <= a.Cols {
			got := poisoned(a.Rows)
			dot, err := SerialDot(a, x, got)
			if err != nil {
				t.Fatal(err)
			}
			check("SerialDot", 1, got, nil)
			wantDot := 0.0
			for i, v := range want {
				wantDot += x[i] * v
			}
			if !bitsEqual(dot, wantDot) {
				t.Errorf("%s: SerialDot sum %v, want %v", name, dot, wantDot)
			}
		}
		for threads := 1; threads <= 4; threads++ {
			got := poisoned(a.Rows)
			if err := Mul1D(a, x, got, threads); err != nil {
				t.Fatal(err)
			}
			check("Mul1D", threads, got, nil)

			p2, err := NewPlan2D(a, threads)
			if err != nil {
				t.Fatal(err)
			}
			cut2 := straddled(a, p2.KSplit)
			got = poisoned(a.Rows)
			if err := Mul2D(a, x, got, p2); err != nil {
				t.Fatal(err)
			}
			check("Mul2D", threads, got, cut2)
			got = poisoned(a.Rows)
			if err := Mul2DAtomic(a, x, got, p2); err != nil {
				t.Fatal(err)
			}
			check("Mul2DAtomic", threads, got, cut2)

			pm, err := NewPlanMerge(a, threads)
			if err != nil {
				t.Fatal(err)
			}
			got = poisoned(a.Rows)
			if err := MulMerge(a, x, got, pm); err != nil {
				t.Fatal(err)
			}
			check("MulMerge", threads, got, straddled(a, pm.StartNZ))
		}
	}
}

// TestMulRowsMatchesPlainLoop drives the row kernel directly on every
// sub-range [lo, hi) of each corpus matrix, so pairs start on odd rows as
// well as even ones. The returned sum must equal, bitwise, a serial dot of
// the weights with the plain loop's rows after the multiply, both for
// separate weights and for y passed as its own weights.
func TestMulRowsMatchesPlainLoop(t *testing.T) {
	for name, a := range rowKernelCorpus(t) {
		x := randomVec(rand.New(rand.NewSource(int64(a.Rows))), a.Cols)
		w := randomVec(rand.New(rand.NewSource(int64(a.Rows)+1)), a.Rows)
		want := make([]float64, a.Rows)
		refMul(a, x, want)
		for lo := 0; lo <= a.Rows; lo++ {
			for hi := lo; hi <= a.Rows; hi++ {
				wantDot, wantSelf := 0.0, 0.0
				for i := lo; i < hi; i++ {
					wantDot += w[i] * want[i]
					wantSelf += want[i] * want[i]
				}
				got := poisoned(hi - lo)
				dot := mulRows(a.RowPtr[lo:hi+1], a.ColIdx, a.Val, x, got, w[lo:hi])
				for i, v := range got {
					if !bitsEqual(v, want[lo+i]) {
						t.Fatalf("%s: rows [%d,%d): row %d = %v, want %v", name, lo, hi, lo+i, v, want[lo+i])
					}
				}
				if !bitsEqual(dot, wantDot) {
					t.Fatalf("%s: rows [%d,%d): sum %v, want %v", name, lo, hi, dot, wantDot)
				}
				got = poisoned(hi - lo)
				if self := mulRows(a.RowPtr[lo:hi+1], a.ColIdx, a.Val, x, got, got); !bitsEqual(self, wantSelf) {
					t.Fatalf("%s: rows [%d,%d) with y as weights: sum %v, want %v", name, lo, hi, self, wantSelf)
				}
			}
		}
	}
}

// TestRangeSumMatchesPlainLoop checks the partial-row sum the 2D and merge
// kernels use at split points against the plain loop over the same range.
func TestRangeSumMatchesPlainLoop(t *testing.T) {
	a := rowKernelCorpus(t)["giant-row"]
	x := randomVec(rand.New(rand.NewSource(3)), a.Cols)
	lo, hi := a.RowPtr[4], a.RowPtr[5]
	for _, r := range [][2]int{{lo, hi}, {lo, lo}, {lo + 1, hi - 1}, {lo + 250, lo + 251}, {lo + 7, hi}} {
		want := 0.0
		for k := r[0]; k < r[1]; k++ {
			want += a.Val[k] * x[a.ColIdx[k]]
		}
		if got := rangeSum(a, x, r[0], r[1]); !bitsEqual(got, want) {
			t.Errorf("rangeSum%v = %v, want %v", r, got, want)
		}
	}
}

// partSum is the plain-loop sum of the nonzeros [lo, hi) of one row.
func partSum(a *sparse.CSR, x []float64, lo, hi int) float64 {
	s := 0.0
	for k := lo; k < hi; k++ {
		s += a.Val[k] * x[a.ColIdx[k]]
	}
	return s
}

// TestFixupOrderBitwise pins the order in which the 2D and merge kernels
// combine the parts of a row that split points cut. A 2D row must equal,
// bitwise, 0 + part_0 + part_1 + … over the threads whose nonzero ranges
// meet it, in thread order; a merge row must equal its leading part (the
// thread that finishes the row) followed by the nonzero carries of the
// earlier threads, in thread order. The giant row spans three or more
// threads from 3 threads up, where a reversed fix-up changes the bits.
func TestFixupOrderBitwise(t *testing.T) {
	spans3 := false
	for name, a := range rowKernelCorpus(t) {
		x := randomVec(rand.New(rand.NewSource(int64(a.NNZ()))), a.Cols)
		for threads := 1; threads <= 8; threads++ {
			p2, err := NewPlan2D(a, threads)
			if err != nil {
				t.Fatal(err)
			}
			got := poisoned(a.Rows)
			if err := Mul2D(a, x, got, p2); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < a.Rows; r++ {
				want, parts := 0.0, 0
				for th := 0; th < threads; th++ {
					lo := max(p2.KSplit[th], a.RowPtr[r])
					hi := min(p2.KSplit[th+1], a.RowPtr[r+1])
					if lo < hi {
						want += partSum(a, x, lo, hi)
						parts++
					}
				}
				spans3 = spans3 || parts >= 3
				if !bitsEqual(got[r], want) {
					t.Errorf("%s: Mul2D threads=%d row %d (%d parts) = %x, want %x",
						name, threads, r, parts, math.Float64bits(got[r]), math.Float64bits(want))
				}
			}

			pm, err := NewPlanMerge(a, threads)
			if err != nil {
				t.Fatal(err)
			}
			got = poisoned(a.Rows)
			if err := MulMerge(a, x, got, pm); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < a.Rows; r++ {
				want := 0.0
				for th := 0; th < threads; th++ {
					if pm.StartRow[th] <= r && r < pm.StartRow[th+1] {
						want = partSum(a, x, max(pm.StartNZ[th], a.RowPtr[r]), a.RowPtr[r+1])
					}
				}
				for th := 0; th < threads; th++ {
					if pm.StartRow[th+1] == r {
						if c := partSum(a, x, max(pm.StartNZ[th], a.RowPtr[r]), pm.StartNZ[th+1]); c != 0 {
							want += c
						}
					}
				}
				if !bitsEqual(got[r], want) {
					t.Errorf("%s: MulMerge threads=%d row %d = %x, want %x",
						name, threads, r, math.Float64bits(got[r]), math.Float64bits(want))
				}
			}
		}
	}
	if !spans3 {
		t.Error("no row spans three or more 2D threads; the corpus no longer exercises the fix-up order")
	}
}

// TestSharedPlanConcurrent runs Mul2D and MulMerge from several goroutines
// on one shared plan per kernel and checks every y bitwise against a lone
// call. Under the race detector it also proves the plans are read-only.
func TestSharedPlanConcurrent(t *testing.T) {
	a := rowKernelCorpus(t)["giant-row"]
	const threads, workers, rounds = 3, 6, 20
	p2, err := NewPlan2D(a, threads)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := NewPlanMerge(a, threads)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([][]float64, workers)
	want2, wantM := make([][]float64, workers), make([][]float64, workers)
	for w := range xs {
		xs[w] = randomVec(rand.New(rand.NewSource(int64(w))), a.Cols)
		want2[w], wantM[w] = make([]float64, a.Rows), make([]float64, a.Rows)
		if err := Mul2D(a, xs[w], want2[w], p2); err != nil {
			t.Fatal(err)
		}
		if err := MulMerge(a, xs[w], wantM[w], pm); err != nil {
			t.Fatal(err)
		}
	}
	same := func(got, want []float64) bool {
		for i := range want {
			if !bitsEqual(got[i], want[i]) {
				return false
			}
		}
		return true
	}
	var wg sync.WaitGroup
	errs := make(chan string, 2*workers*rounds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			y := make([]float64, a.Rows)
			for i := 0; i < rounds; i++ {
				if err := Mul2D(a, xs[w], y, p2); err != nil || !same(y, want2[w]) {
					errs <- fmt.Sprintf("worker %d round %d: Mul2D differs from a lone call (err %v)", w, i, err)
				}
				if err := MulMerge(a, xs[w], y, pm); err != nil || !same(y, wantM[w]) {
					errs <- fmt.Sprintf("worker %d round %d: MulMerge differs from a lone call (err %v)", w, i, err)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
