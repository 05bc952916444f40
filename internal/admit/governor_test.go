package admit

import (
	"context"
	"errors"
	"math"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparseorder/internal/reorder"
)

// TestEstimateMatrixBytes pins the estimator formulas documented in
// DESIGN.md: two CSR copies plus the worst transient ordering structure.
func TestEstimateMatrixBytes(t *testing.T) {
	const n, nnz = 100, 1000
	csr := int64(8*(n+1) + 12*nnz)
	g := int64(8*(n+1) + 8*nnz)
	cases := []struct {
		algs []reorder.Algorithm
		want int64
	}{
		{nil, 2 * csr},
		{[]reorder.Algorithm{reorder.Original}, 2 * csr},
		{[]reorder.Algorithm{reorder.RCM}, 2*csr + g + 24*n},
		{[]reorder.Algorithm{reorder.AMD}, 2*csr + g + 136*n + 16*nnz},
		{[]reorder.Algorithm{reorder.ND}, 2*csr + 3*g},
		{[]reorder.Algorithm{reorder.HP}, 2*csr + 2*(4*nnz+16*n)},
		{[]reorder.Algorithm{reorder.Gray}, 2*csr + 16*n},
		// The max over the set wins, not the sum.
		{[]reorder.Algorithm{reorder.RCM, reorder.ND, reorder.Gray}, 2*csr + 3*g},
	}
	for _, c := range cases {
		if got := EstimateMatrixBytes(n, nnz, c.algs); got != c.want {
			t.Errorf("EstimateMatrixBytes(%v) = %d, want %d", c.algs, got, c.want)
		}
	}
	if got := EstimateMatrixBytes(-1, 5, nil); got != 0 {
		t.Errorf("negative rows: got %d, want 0", got)
	}
}

// TestResolveMemBudget covers the three NewGovernor budget regimes, including
// the GOMEMLIMIT auto-detection path.
func TestResolveMemBudget(t *testing.T) {
	if got := resolveMemBudget(123); got != 123 {
		t.Errorf("explicit budget: got %d", got)
	}
	if got := resolveMemBudget(-1); got != 0 {
		t.Errorf("disabled budget: got %d", got)
	}
	old := debug.SetMemoryLimit(math.MaxInt64)
	defer debug.SetMemoryLimit(old)
	if got := resolveMemBudget(0); got != 0 {
		t.Errorf("auto with no GOMEMLIMIT: got %d, want 0 (governor off)", got)
	}
	debug.SetMemoryLimit(1 << 30)
	if want := int64(1<<30) - (1<<30)/10; resolveMemBudget(0) != want {
		t.Errorf("auto with GOMEMLIMIT=1GiB: got %d, want %d", resolveMemBudget(0), want)
	}
}

// TestGovernorNarrowsConcurrency is degradation ladder step 1: with a
// budget of 100 and 40-byte matrices, at most two may hold grants at once,
// whatever the worker count.
func TestGovernorNarrowsConcurrency(t *testing.T) {
	g := NewGovernor(100, nil)
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			adm, err := g.Acquire(context.Background(), "m", 40, false)
			if err != nil {
				t.Error(err)
				return
			}
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			cur.Add(-1)
			adm.Release()
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > 2 || p < 1 {
		t.Errorf("peak concurrent admissions = %d, want 1..2 under a 100/40 budget", p)
	}
}

// TestGovernorSoloDrainsPool is ladder step 2: an over-budget matrix waits
// for the pool to drain, holds it exclusively, and cannot be starved by a
// stream of small admissions arriving while it waits.
func TestGovernorSoloDrainsPool(t *testing.T) {
	g := NewGovernor(100, nil)
	ctx := context.Background()
	small, err := g.Acquire(ctx, "small", 40, false)
	if err != nil {
		t.Fatal(err)
	}

	soloc := make(chan *Admission, 1)
	go func() {
		adm, err := g.Acquire(ctx, "big", 150, false) // over budget, under solo ceiling
		if err != nil {
			t.Error(err)
		}
		soloc <- adm
	}()
	select {
	case <-soloc:
		t.Fatal("solo admission granted while the pool was busy")
	case <-time.After(30 * time.Millisecond):
	}

	// A tiny matrix that trivially fits must still queue behind the waiting
	// solo admission (anti-starvation).
	tinyc := make(chan *Admission, 1)
	go func() {
		adm, err := g.Acquire(ctx, "tiny", 1, false)
		if err != nil {
			t.Error(err)
		}
		tinyc <- adm
	}()
	select {
	case <-tinyc:
		t.Fatal("small admission jumped the queue past a waiting solo matrix")
	case <-time.After(30 * time.Millisecond):
	}

	small.Release()
	var solo *Admission
	select {
	case solo = <-soloc:
	case <-time.After(2 * time.Second):
		t.Fatal("solo admission never granted after the pool drained")
	}
	select {
	case <-tinyc:
		t.Fatal("admission granted while a solo matrix held the pool")
	case <-time.After(30 * time.Millisecond):
	}
	solo.Release()
	select {
	case adm := <-tinyc:
		adm.Release()
	case <-time.After(2 * time.Second):
		t.Fatal("queued admission never granted after the solo release")
	}
}

// TestGovernorAdmitCancel checks that cancelling the run context unblocks
// a waiting admission with the context's error.
func TestGovernorAdmitCancel(t *testing.T) {
	g := NewGovernor(100, nil)
	hold, err := g.Acquire(context.Background(), "hold", 100, false)
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := g.Acquire(cctx, "waiter", 50, false)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancellation did not unblock the waiting admission")
	}
	hold.Release()
}

// TestGovernorNilZeroAlloc pins the disabled path: with no budget
// configured the admit/release pair must not allocate or lock.
func TestGovernorNilZeroAlloc(t *testing.T) {
	var g *Governor
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		adm, err := g.Acquire(ctx, "m", 1<<20, false)
		if err != nil {
			t.Fatal(err)
		}
		adm.Release()
	})
	if allocs != 0 {
		t.Fatalf("nil governor admit/release allocates %v per call", allocs)
	}
}

// TestParseByteSize covers the accepted spellings and the rejects.
func TestParseByteSize(t *testing.T) {
	good := map[string]int64{
		"512MiB":     512 << 20,
		"2g":         2 << 30,
		"1073741824": 1 << 30,
		"1.5k":       1536,
		" 64 kb ":    64 << 10,
		"0":          0,
		"10b":        10,
		"1tib":       1 << 40,
		"8388607TiB": 8388607 << 40, // the largest whole TiB below 2⁶³
	}
	for in, want := range good {
		got, err := ParseByteSize(in)
		if err != nil || got != want {
			t.Errorf("ParseByteSize(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	// 2⁶³ bytes does not fit an int64: both spellings must be rejected,
	// not wrapped to a negative size (which would turn the governor off).
	for _, in := range []string{"", "abc", "-5m", "1eMiB", "inf", "9223372036854775807", "8388608TiB"} {
		if _, err := ParseByteSize(in); err == nil {
			t.Errorf("ParseByteSize(%q) succeeded, want error", in)
		}
	}
}

// TestParseBudget covers the -membudget spellings shared by cmd/study and
// cmd/serve.
func TestParseBudget(t *testing.T) {
	good := map[string]int64{"auto": 0, "": 0, "off": -1, "512MiB": 512 << 20, "1": 1}
	for in, want := range good {
		if got, err := ParseBudget(in); err != nil || got != want {
			t.Errorf("ParseBudget(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	// A size of 0 bytes would silently mean auto-detect.
	for _, in := range []string{"0", "0.4", "abc", "Auto", "-1", "8388608TiB"} {
		_, err := ParseBudget(in)
		if err == nil || !strings.Contains(err.Error(), `"auto"`) || !strings.Contains(err.Error(), `"off"`) {
			t.Errorf("ParseBudget(%q) error = %v, want one naming \"auto\" and \"off\"", in, err)
		}
	}
}

// TestFormatBytes pins the log rendering.
func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		512:       "512B",
		1536:      "1.5KiB",
		512 << 20: "512.0MiB",
		3 << 30:   "3.0GiB",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

// TestGovernorTryAcquire covers the non-blocking probe the serving daemon
// sheds load with: grants that fit are immediate, grants that would wait
// return ErrGovernorSaturated, and over-budget requests are a permanent
// ErrResourceBudget (a non-blocking caller can never ride the solo-drain
// ladder).
func TestGovernorTryAcquire(t *testing.T) {
	g := NewGovernor(100, nil)
	adm, err := g.TryAcquire("a", 60)
	if err != nil || adm == nil {
		t.Fatalf("TryAcquire(60) = %v, %v; want a grant", adm, err)
	}
	if g.Saturated() {
		t.Error("Saturated() with 40 bytes free")
	}
	if _, err := g.TryAcquire("b", 50); !errors.Is(err, ErrGovernorSaturated) {
		t.Errorf("TryAcquire past the budget = %v, want ErrGovernorSaturated", err)
	}
	if _, err := g.TryAcquire("huge", 101); !errors.Is(err, ErrResourceBudget) {
		t.Errorf("TryAcquire(101) = %v, want ErrResourceBudget", err)
	}
	b, err := g.TryAcquire("b", 40)
	if err != nil {
		t.Fatalf("TryAcquire(40) = %v, want a grant", err)
	}
	if !g.Saturated() {
		t.Error("Saturated() = false with the budget fully committed")
	}
	b.Release()
	adm.Release()
	if g.Saturated() {
		t.Error("Saturated() = true after every grant was released")
	}
}

// TestGovernorTryAcquireSoloEdge is the solo-admission edge: while a solo
// admission waits for (or holds) the pool, TryAcquire must refuse even
// trivially-fitting grants — otherwise a stream of non-blocking probes
// could starve the drained-pool degradation forever.
func TestGovernorTryAcquireSoloEdge(t *testing.T) {
	g := NewGovernor(100, nil)
	ctx := context.Background()
	small, err := g.Acquire(ctx, "small", 40, false)
	if err != nil {
		t.Fatal(err)
	}
	soloc := make(chan *Admission, 1)
	go func() {
		adm, err := g.Acquire(ctx, "big", 150, false) // solo: waits for drain
		if err != nil {
			t.Error(err)
		}
		soloc <- adm
	}()
	// Wait until the solo admission is registered as waiting.
	for i := 0; ; i++ {
		g.mu.Lock()
		waiting := g.soloWaiting
		g.mu.Unlock()
		if waiting > 0 {
			break
		}
		if i > 400 {
			t.Fatal("solo admission never started waiting")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := g.TryAcquire("tiny", 1); !errors.Is(err, ErrGovernorSaturated) {
		t.Errorf("TryAcquire while a solo admission waits = %v, want ErrGovernorSaturated", err)
	}
	if !g.Saturated() {
		t.Error("Saturated() = false while a solo admission waits")
	}
	small.Release()
	solo := <-soloc
	if _, err := g.TryAcquire("tiny", 1); !errors.Is(err, ErrGovernorSaturated) {
		t.Errorf("TryAcquire while a solo admission holds the pool = %v, want ErrGovernorSaturated", err)
	}
	solo.Release()
	adm, err := g.TryAcquire("tiny", 1)
	if err != nil {
		t.Fatalf("TryAcquire after the solo release = %v, want a grant", err)
	}
	adm.Release()
}

// TestGovernorTryAcquireNil pins the nil-governor contract: everything is
// granted, nothing is saturated.
func TestGovernorTryAcquireNil(t *testing.T) {
	var g *Governor
	adm, err := g.TryAcquire("m", 1<<40)
	if err != nil || adm != nil {
		t.Fatalf("nil governor TryAcquire = %v, %v; want nil, nil", adm, err)
	}
	adm.Release()
	if g.Saturated() {
		t.Error("nil governor reports saturated")
	}
	if g.Budget() != 0 {
		t.Error("nil governor reports a budget")
	}
}
