// Package par provides the deterministic fork-join helpers shared by the
// parallel reordering paths (sparse permutation, graph construction,
// feature computation, component-parallel Cuthill-McKee).
//
// Every helper follows one contract: chunk boundaries depend only on the
// problem size and the resolved worker count, and callers reduce per-chunk
// partial results in chunk order. Output is therefore byte-identical for
// any worker count; goroutine scheduling can only change timing, never
// results.
package par

import (
	"runtime"
	"sync"
)

// Canceled reports whether the done channel is closed. A nil channel is
// never closed, so uncancellable callers pass nil and pay only a branch.
// It is the cooperative cancellation primitive of the reordering hot
// paths: long loops call it periodically and bail out early, and the
// context-aware entry points (reorder.ComputeTimedCtx and friends) translate
// the early exit into the context's error.
func Canceled(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// Resolve maps a Workers option to an effective worker count using the
// package-wide convention: 0 means runtime.GOMAXPROCS(0), values below
// zero mean 1 (serial), and positive values are used as given.
func Resolve(workers int) int {
	if workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		return 1
	}
	return workers
}

// Chunks returns the number of contiguous ranges Ranges splits n items
// into for a resolved worker count: min(workers, n), at least 1 when
// n > 0. It lets callers pre-size per-chunk result slices.
func Chunks(n, workers int) int {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Ranges splits [0, n) into Chunks(n, workers) contiguous ranges and calls
// fn(chunk, lo, hi) once per range, concurrently when more than one chunk
// exists. It returns after every call completes. The boundaries are
// lo = chunk*n/c, hi = (chunk+1)*n/c, a function of n and workers alone.
func Ranges(n, workers int, fn func(chunk, lo, hi int)) {
	if n <= 0 {
		return
	}
	c := Chunks(n, workers)
	if c == 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for k := 0; k < c; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			fn(k, k*n/c, (k+1)*n/c)
		}(k)
	}
	wg.Wait()
}

// Limiter bounds the goroutines of a recursive fork-join (nested
// dissection, recursive bisection): at most workers-1 branches run on
// extra goroutines at any moment, and a branch that finds no token free
// simply recurses inline. Determinism is the caller's part of the
// contract — both forked branches must write disjoint state and derive
// any randomness from per-branch seeds — after which the token schedule
// can only change timing, never results. A nil Limiter runs every Fork
// serially, which is the exact Workers=1 code path.
type Limiter struct {
	tokens chan struct{}
}

// NewLimiter returns a Limiter for the package worker convention
// (0 = GOMAXPROCS, <=1 serial). A count resolving to 1 returns nil: the
// serial limiter with zero overhead.
func NewLimiter(workers int) *Limiter {
	w := Resolve(workers)
	if w <= 1 {
		return nil
	}
	return &Limiter{tokens: make(chan struct{}, w-1)}
}

// Fork runs a and b and returns after both complete. When a goroutine
// token is free, a runs on its own goroutine concurrently with b;
// otherwise both run inline, so recursion never blocks waiting for a
// token and the total goroutine count stays bounded by the worker count
// regardless of recursion depth or shape.
func (l *Limiter) Fork(a, b func()) {
	if l == nil {
		a()
		b()
		return
	}
	select {
	case l.tokens <- struct{}{}:
		join := make(chan struct{})
		go func() {
			defer close(join)
			defer func() { <-l.tokens }()
			a()
		}()
		b()
		<-join
	default:
		a()
		b()
	}
}

// Do runs the given thunks concurrently when workers > 1 and sequentially
// otherwise, returning after all complete. It is the fork-join primitive
// for a small fixed set of independent jobs (e.g. the feature loops).
func Do(workers int, thunks ...func()) {
	if workers <= 1 || len(thunks) <= 1 {
		for _, f := range thunks {
			f()
		}
		return
	}
	var wg sync.WaitGroup
	for _, f := range thunks {
		wg.Add(1)
		go func(f func()) {
			defer wg.Done()
			f()
		}(f)
	}
	wg.Wait()
}
