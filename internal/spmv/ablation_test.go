package spmv

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"sparseorder/internal/gen"
	"sparseorder/internal/sparse"
)

// Mul2DAtomic is the ablation variant of the 2D kernel (see DESIGN.md):
// instead of combining the rows that straddle a split point in Mul2D's
// sequential fix-up pass, each worker adds its two partial row sums to y
// with a compare-and-swap loop. It is measurably slower under contention,
// which is why the paper's formulation — and Mul2D — handle the first and
// last row of each thread specially. It lives beside the tests as an
// oracle and a benchmark baseline, not as a production kernel.
func Mul2DAtomic(a *sparse.CSR, x, y []float64, p *Plan2D) error {
	if err := checkDims(a, x, y); err != nil {
		return err
	}
	if err := p.CheckPlan(a); err != nil {
		return err
	}
	if p.Threads == 1 {
		serialUnchecked(a, x, y)
		return nil
	}
	zeroRows(y[:a.Rows], p.Threads)
	var wg sync.WaitGroup
	for t := 0; t < p.Threads; t++ {
		if p.KSplit[t] >= p.KSplit[t+1] {
			continue
		}
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			own := [2]partial{{row: -1}, {row: -1}}
			p.mulThread(a, x, y, t, own[:])
			for _, s := range own {
				if s.row >= 0 {
					atomicAdd(&y[s.row], s.sum)
				}
			}
		}(t)
	}
	wg.Wait()
	return nil
}

// atomicAdd performs y += v with a CAS loop on the float64's bits.
func atomicAdd(addr *float64, v float64) {
	bits := (*uint64)(unsafe.Pointer(addr))
	for {
		old := atomic.LoadUint64(bits)
		newV := math.Float64frombits(old) + v
		if atomic.CompareAndSwapUint64(bits, old, math.Float64bits(newV)) {
			return
		}
	}
}

// BenchmarkAblation2DAtomics compares the paper-style fix-up 2D kernel
// against the CAS-based alternative.
func BenchmarkAblation2DAtomics(b *testing.B) {
	a := gen.RMAT(12, 8, 4) // skewed rows: many boundary rows per split
	threads := runtime.GOMAXPROCS(0) * 4
	x := make([]float64, a.Cols)
	y := make([]float64, a.Rows)
	for i := range x {
		x[i] = 1
	}
	plan, err := NewPlan2D(a, threads)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fixup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Mul2D(a, x, y, plan)
		}
	})
	b.Run("atomics", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Mul2DAtomic(a, x, y, plan)
		}
	})
}
