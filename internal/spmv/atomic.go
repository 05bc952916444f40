package spmv

import (
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"sparseorder/internal/sparse"
)

// Mul2DAtomic is the ablation variant of the 2D kernel (see DESIGN.md):
// instead of accumulating boundary rows thread-locally and combining them
// in a sequential fix-up pass, every partial row sum is added to y with a
// compare-and-swap loop. It is measurably slower under contention, which
// is why the paper's formulation — and Mul2D — handle the first and last
// row of each thread specially.
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
	var wg sync.WaitGroup
	zb := RowBlocks1D(a.Rows, p.Threads)
	for t := 0; t < p.Threads; t++ {
		lo, hi := zb[t], zb[t+1]
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(y []float64) {
			defer wg.Done()
			for i := range y {
				y[i] = 0
			}
		}(y[lo:hi])
	}
	wg.Wait()

	for t := 0; t < p.Threads; t++ {
		kLo, kHi := p.KSplit[t], p.KSplit[t+1]
		if kLo >= kHi {
			continue
		}
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			p.mulThread(a, x, y, t, func(r int, sum float64) {
				atomicAdd(&y[r], sum)
			})
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
