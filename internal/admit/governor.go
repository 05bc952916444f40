// Package admit decides whether work fits the memory budget: the
// byte-weighted admission governor shared by the study runner and the
// serving daemon, and the working-set estimates it admits by.
package admit

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"

	"sparseorder/internal/obs"
	"sparseorder/internal/reorder"
)

// ErrResourceBudget reports that a matrix was not evaluated because its
// estimated working set exceeds what the memory budget can ever grant
// (more than soloOvercommit times the budget, i.e. not even a drained-pool
// solo run could stay near the limit). The failure classifies as
// failure.FailResource, journals as a terminal failure, and resumes cleanly.
var ErrResourceBudget = errors.New("admit: matrix working set exceeds the memory budget")

// soloOvercommit is how far past the budget a single matrix may go when it
// runs alone with the pool drained (degradation ladder step 2). Matrices
// estimated beyond budget*soloOvercommit are skipped with ErrResourceBudget
// (step 3).
const soloOvercommit = 2

// Per-structure byte costs used by the working-set estimator. CSR stores
// RowPtr []int (8 B/row), ColIdx []int32 (4 B/nnz) and Val []float64
// (8 B/nnz); the adjacency graph of A+Aᵀ stores Ptr []int and Adj []int32
// with every edge appearing twice, up to 2·nnz directed edges.
func csrBytes(n, nnz int64) int64   { return 8*(n+1) + 12*nnz }
func graphBytes(n, nnz int64) int64 { return 8*(n+1) + 4*2*nnz }

// estimateOrderingBytes returns the transient allocation high-water mark of
// computing one ordering, beyond the input and output CSR copies. The
// factors are the per-ordering blow-ups of the implementations:
//
//   - RCM: the A+Aᵀ graph plus O(n) BFS level/queue state (~24 B/row).
//   - AMD: the graph, 136 B/row of per-variable arrays (three list
//     headers, eleven int32 arrays, the degree lists and the output
//     permutation) and up to 16 B/nnz of quotient-graph lists (the
//     adjacency copy plus element lists of the same order).
//   - ND and GP: the graph plus the coarsening/recursion hierarchy; level
//     sizes decay roughly geometrically, summing to ≈2× the finest graph
//     (≈3× graph total).
//   - HP: the hypergraph (one pin per nonzero, net pointers per row/col)
//     plus its coarsening hierarchy, ≈2× the finest hypergraph.
//   - Gray: per-row bitmap keys and the sort permutation, O(n).
func estimateOrderingBytes(alg reorder.Algorithm, n, nnz int64) int64 {
	g := graphBytes(n, nnz)
	switch alg {
	case reorder.RCM:
		return g + 24*n
	case reorder.AMD:
		return g + 136*n + 16*nnz
	case reorder.ND, reorder.GP:
		return 3 * g
	case reorder.HP:
		h := 4*nnz + 16*n // pins + net/cell pointers
		return 2 * h
	case reorder.Gray:
		return 16 * n
	default: // Original and unknown orderings allocate nothing extra.
		return 0
	}
}

// EstimateMatrixBytes estimates the peak working set of evaluating one
// matrix through the full study pipeline: the input CSR, one reordered CSR
// copy, and the most expensive transient ordering structure among the
// configured orderings. The estimate is intentionally a ceiling-ish model,
// not an accounting of every allocation — the governor needs relative
// weight and a stable upper bound, not byte-exact truth (see DESIGN.md,
// "Resource governance & degradation contract").
func EstimateMatrixBytes(rows, nnz int, orderings []reorder.Algorithm) int64 {
	n, z := int64(rows), int64(nnz)
	if n < 0 || z < 0 {
		return 0
	}
	var worst int64
	for _, alg := range orderings {
		if b := estimateOrderingBytes(alg, n, z); b > worst {
			worst = b
		}
	}
	return 2*csrBytes(n, z) + worst
}

// EstimateIngestBytes extends the working-set model to the parallel
// ingestion pipeline's transient structures: the post-header text buffer
// (~24 B per entry at WriteMatrixMarket's %.17g width), the per-worker COO
// shards (16 B per stored entry: two int32 indices and a float64 value),
// the assembly scratch arrays of the same total size, and the output CSR.
// Symmetric expansion at worst doubles the stored entries, which the
// shard/scratch terms already cover by costing the expanded count; callers
// pass the post-expansion nnz they expect (the declared nnz is a safe
// floor). The worker count only adds per-chunk bookkeeping, not data, so
// it does not appear in the model.
func EstimateIngestBytes(rows, nnz int) int64 {
	n, z := int64(rows), int64(nnz)
	if n < 0 || z < 0 {
		return 0
	}
	text := 24 * z
	shards := 16 * z
	scratch := 16 * z
	return text + shards + scratch + csrBytes(n, z)
}

// resolveMemBudget turns a NewGovernor budget into an effective byte budget:
// positive values are taken as-is, negative disables the governor, and 0
// auto-detects from the Go runtime's soft memory limit (GOMEMLIMIT /
// debug.SetMemoryLimit): when a limit is set the budget is 90% of it,
// leaving headroom for the runtime itself; with no limit set there is
// nothing to govern against and the governor stays off.
func resolveMemBudget(v int64) int64 {
	switch {
	case v > 0:
		return v
	case v < 0:
		return 0
	}
	lim := debug.SetMemoryLimit(-1) // negative input: query without changing
	if lim == math.MaxInt64 {
		return 0
	}
	return lim - lim/10
}

// Governor admits work into a pool through a byte-weighted
// budget semaphore and applies the degradation ladder when a matrix does
// not fit:
//
//  1. Matrices whose estimate fits the budget acquire their bytes before
//     evaluating and release them after; under pressure this narrows the
//     effective concurrency below the pool's worker count without any
//     explicit worker throttling.
//  2. A matrix estimated over the budget (but within soloOvercommit×) is
//     admitted solo: admission waits for the pool to drain and holds it
//     exclusively, so the oversized matrix is the only allocation source
//     while it runs. Retries of retryable failures are promoted to solo
//     admission the same way.
//  3. A matrix beyond soloOvercommit× the budget is rejected with
//     ErrResourceBudget and recorded with failure class resource.
//
// A nil *Governor (no budget configured) admits everything immediately;
// the nil path performs no allocation and no locking.
type Governor struct {
	budget  int64
	soloCap int64

	mu          sync.Mutex
	cond        *sync.Cond
	inUse       int64 // bytes held by admitted matrices
	inFlight    int   // admitted matrices
	solo        bool  // a solo admission holds the whole pool
	soloWaiting int   // solo admissions waiting for the pool to drain

	inUseG    *obs.Gauge   // sparseorder_governor_inflight_bytes
	admittedC *obs.Counter // sparseorder_governor_admitted_bytes_total
	degradedC *obs.Counter // sparseorder_governor_degradations_total
	rejectedC *obs.Counter // sparseorder_governor_rejected_total
}

// NewGovernor builds a byte-weighted admission governor over memBudget
// (interpreted by resolveMemBudget: >0 literal bytes, 0 auto from
// GOMEMLIMIT, <0 off), or nil — admit-everything — when no budget applies.
// Telemetry handles are resolved once here so admission never touches the
// registry; o (and o.Metrics) may be nil.
func NewGovernor(memBudget int64, o *obs.Obs) *Governor {
	budget := resolveMemBudget(memBudget)
	if budget <= 0 {
		return nil
	}
	g := &Governor{budget: budget, soloCap: budget * soloOvercommit}
	g.cond = sync.NewCond(&g.mu)
	if o != nil && o.Metrics != nil {
		r := o.Metrics
		r.Gauge("sparseorder_governor_budget_bytes",
			"memory budget the governor admits matrices against").Set(float64(budget))
		g.inUseG = r.Gauge("sparseorder_governor_inflight_bytes",
			"estimated working-set bytes of matrices currently admitted")
		g.admittedC = r.Counter("sparseorder_governor_admitted_bytes_total",
			"cumulative estimated bytes admitted into the pool")
		g.degradedC = r.Counter("sparseorder_governor_degradations_total",
			"matrices degraded to a solo run with the pool drained")
		g.rejectedC = r.Counter("sparseorder_governor_rejected_total",
			"matrices rejected with failure class resource")
	}
	return g
}

// Admission is a held budget grant; Release returns the bytes (and, for a
// solo grant, the pool) to the governor.
type Admission struct {
	g     *Governor
	bytes int64
	solo  bool
}

// Acquire blocks until est bytes fit the budget (or, for oversized matrices
// and solo retries, until the pool is drained), then grants them. It
// returns (nil, nil) from a nil governor, (nil, ctx.Err()) when the run is
// cancelled while waiting, and (nil, ErrResourceBudget-wrapped) for
// matrices the budget can never accommodate.
func (g *Governor) Acquire(ctx context.Context, name string, est int64, wantSolo bool) (*Admission, error) {
	if g == nil {
		return nil, nil
	}
	if est > g.soloCap {
		if g.rejectedC != nil {
			g.rejectedC.Inc()
		}
		return nil, fmt.Errorf("%w: %s needs ~%s, budget %s (solo ceiling %s)",
			ErrResourceBudget, name, FormatBytes(est), FormatBytes(g.budget), FormatBytes(g.soloCap))
	}
	solo := wantSolo || est > g.budget
	// Wake waiters when the context dies so cancellation interrupts the
	// cond wait.
	stop := context.AfterFunc(ctx, func() {
		g.mu.Lock()
		g.cond.Broadcast()
		g.mu.Unlock()
	})
	defer stop()

	g.mu.Lock()
	defer g.mu.Unlock()
	if solo {
		g.soloWaiting++
		for g.inFlight > 0 || g.solo {
			if ctx.Err() != nil {
				g.soloWaiting--
				return nil, ctx.Err()
			}
			g.cond.Wait()
		}
		g.soloWaiting--
		g.solo = true
		if g.degradedC != nil {
			g.degradedC.Inc()
		}
	} else {
		// Normal admissions also yield to waiting solo admissions so an
		// oversized matrix cannot be starved by a stream of small ones.
		for g.solo || g.soloWaiting > 0 || g.inUse+est > g.budget {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			g.cond.Wait()
		}
	}
	g.inFlight++
	g.inUse += est
	if g.inUseG != nil {
		g.inUseG.Set(float64(g.inUse))
	}
	if g.admittedC != nil {
		g.admittedC.Add(uint64(est))
	}
	return &Admission{g: g, bytes: est, solo: solo}, nil
}

// Solo reports whether the grant holds the whole pool (degradation ladder
// step 2); false for a nil admission.
func (a *Admission) Solo() bool { return a != nil && a.solo }

// Release returns the grant; safe on a nil admission (the nil-governor
// path).
func (a *Admission) Release() {
	if a == nil {
		return
	}
	g := a.g
	g.mu.Lock()
	g.inFlight--
	g.inUse -= a.bytes
	if a.solo {
		g.solo = false
	}
	if g.inUseG != nil {
		g.inUseG.Set(float64(g.inUse))
	}
	g.cond.Broadcast()
	g.mu.Unlock()
}

// ErrGovernorSaturated reports that a non-blocking acquisition would have
// had to wait: the budget is currently committed (or a solo admission
// holds, or is waiting for, the pool). It is the load-shedding signal —
// callers that cannot queue (the serving daemon) translate it into a
// 429/Retry-After instead of blocking unboundedly.
var ErrGovernorSaturated = errors.New("admit: memory governor saturated")

// TryAcquire is the non-blocking Acquire: it grants est bytes immediately
// or reports why it cannot. It returns (nil, nil) from a nil governor,
// (nil, ErrResourceBudget-wrapped) when est exceeds the budget — a
// non-blocking caller can never use the solo-drain ladder, so anything
// over the plain budget is a permanent refusal, not a transient one — and
// (nil, ErrGovernorSaturated-wrapped) when the grant would have to wait.
// Like Acquire, it yields to waiting solo admissions so a drained-pool
// degradation cannot be starved by a stream of non-blocking probes.
func (g *Governor) TryAcquire(name string, est int64) (*Admission, error) {
	if g == nil {
		return nil, nil
	}
	if est > g.budget {
		if g.rejectedC != nil {
			g.rejectedC.Inc()
		}
		return nil, fmt.Errorf("%w: %s needs ~%s, budget %s",
			ErrResourceBudget, name, FormatBytes(est), FormatBytes(g.budget))
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.solo || g.soloWaiting > 0 || g.inUse+est > g.budget {
		return nil, fmt.Errorf("%w: %s needs ~%s, %s of %s in use",
			ErrGovernorSaturated, name, FormatBytes(est), FormatBytes(g.inUse), FormatBytes(g.budget))
	}
	g.inFlight++
	g.inUse += est
	if g.inUseG != nil {
		g.inUseG.Set(float64(g.inUse))
	}
	if g.admittedC != nil {
		g.admittedC.Add(uint64(est))
	}
	return &Admission{g: g, bytes: est}, nil
}

// Saturated reports whether a non-blocking acquisition of even one byte
// would currently fail: the budget is fully committed or a solo admission
// holds (or waits for) the pool. A nil governor is never saturated. The
// serving daemon surfaces this state on /readyz.
func (g *Governor) Saturated() bool {
	if g == nil {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.solo || g.soloWaiting > 0 || g.inUse >= g.budget
}

// Budget returns the resolved byte budget (0 for a nil governor).
func (g *Governor) Budget() int64 {
	if g == nil {
		return 0
	}
	return g.budget
}

// SoloCap returns the largest estimate a blocking Acquire can ever admit
// (0 for a nil governor).
func (g *Governor) SoloCap() int64 {
	if g == nil {
		return 0
	}
	return g.soloCap
}

// byteUnits are the suffixes ParseByteSize accepts; both IEC (KiB) and SI
// (KB) spellings denote the 1024-based unit — artifact sizing here has no
// use for the 2.4% distinction.
var byteUnits = []struct {
	suffix string
	shift  uint
}{
	{"tib", 40}, {"tb", 40}, {"t", 40},
	{"gib", 30}, {"gb", 30}, {"g", 30},
	{"mib", 20}, {"mb", 20}, {"m", 20},
	{"kib", 10}, {"kb", 10}, {"k", 10},
	{"b", 0},
}

// ParseByteSize parses a human byte size ("512MiB", "2g", "1073741824")
// into bytes. Fractional values are allowed with units ("1.5GiB").
func ParseByteSize(s string) (int64, error) {
	t := strings.ToLower(strings.TrimSpace(s))
	if t == "" {
		return 0, fmt.Errorf("admit: empty byte size")
	}
	shift := uint(0)
	for _, u := range byteUnits {
		if strings.HasSuffix(t, u.suffix) {
			t = strings.TrimSpace(strings.TrimSuffix(t, u.suffix))
			shift = u.shift
			break
		}
	}
	v, err := strconv.ParseFloat(t, 64)
	if err != nil || v < 0 || math.IsInf(v, 0) || math.IsNaN(v) {
		return 0, fmt.Errorf("admit: bad byte size %q", s)
	}
	// math.MaxInt64 rounds up to the float64 1<<63, which does not fit an
	// int64, so 1<<63 is the exclusive bound.
	b := v * float64(int64(1)<<shift)
	if b >= 1<<63 {
		return 0, fmt.Errorf("admit: byte size %q overflows", s)
	}
	return int64(b), nil
}

// ParseBudget parses a memory-budget flag into NewGovernor's argument:
// "auto" or "" gives 0 (derive the budget from GOMEMLIMIT), "off" gives -1
// (no governor), and anything else is a byte size of at least one byte. A
// size that rounds to 0 bytes is an error rather than a silent "auto".
func ParseBudget(s string) (int64, error) {
	switch s {
	case "auto", "":
		return 0, nil
	case "off":
		return -1, nil
	}
	b, err := ParseByteSize(s)
	if err == nil && b == 0 {
		err = fmt.Errorf("admit: budget %q is 0 bytes", s)
	}
	if err != nil {
		return 0, fmt.Errorf(`%w; want "auto", "off" or a size like 512MiB`, err)
	}
	return b, nil
}

// FormatBytes renders bytes with a binary-unit suffix for logs and errors.
func FormatBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}
