// Package reorder implements the six sparse-matrix reordering algorithms
// of the study (paper Table 1): Reverse Cuthill-McKee, approximate minimum
// degree, nested dissection, graph-partitioning ordering, hypergraph-
// partitioning ordering and Gray ordering, plus the identity "original"
// ordering used as the baseline. Each algorithm runs the paper's single
// configuration; Options sets only the part count, the seed and the
// worker count. The ablation variants (Gray thresholds, ND cutoffs, HP
// under connectivity-1, nnz-weighted GP, the min-degree RCM start) live
// beside their benchmarks in the package's tests.
package reorder

import (
	"context"
	"fmt"
	"time"

	"sparseorder/internal/faultinject"
	"sparseorder/internal/graph"
	"sparseorder/internal/obs"
	"sparseorder/internal/sparse"
)

// Algorithm names a reordering algorithm.
type Algorithm string

// The algorithms of the study, using the paper's short names.
const (
	Original Algorithm = "Original"
	RCM      Algorithm = "RCM"
	AMD      Algorithm = "AMD"
	ND       Algorithm = "ND"
	GP       Algorithm = "GP"
	HP       Algorithm = "HP"
	Gray     Algorithm = "Gray"
)

// Algorithms lists the reorderings in the paper's presentation order,
// excluding the Original baseline.
var Algorithms = []Algorithm{RCM, AMD, ND, GP, HP, Gray}

// AllOrderings is Algorithms preceded by the Original baseline.
var AllOrderings = append([]Algorithm{Original}, Algorithms...)

// Symmetric reports whether the algorithm produces a symmetric
// permutation (applied to both rows and columns). Only Gray does not.
func (a Algorithm) Symmetric() bool { return a != Gray }

// Options configure a reordering run. Every algorithm otherwise runs the
// paper's single configuration (§3.3, Table 1): METIS-style defaults for
// GP and ND with a 128-vertex minimum-degree cutoff, the cut-net metric
// for HP, and a 16-section bitmap with a 20-nonzero dense threshold for
// Gray.
type Options struct {
	// Parts is the number of parts for GP and HP. The paper partitions to
	// the core count of the target machine for GP and always 128 for HP;
	// 0 defaults to 128.
	Parts int
	// Seed drives the randomized components of the partitioners.
	Seed int64
	// Workers bounds the goroutines of the parallel reordering hot path —
	// A+Aᵀ adjacency construction, the permutation application in Apply,
	// and the graph/matrix orderings: component-parallel Cuthill-McKee,
	// fork-join nested dissection, and the parallel recursive bisections
	// behind GP and HP. AMD, and the FM refinement inside GP, HP and ND,
	// run one engine at every worker count. 0 means GOMAXPROCS, 1 runs
	// everything serially on the calling goroutine. Permutations
	// and reordered matrices are byte-identical at every worker count (see
	// DESIGN.md, "Parallel reordering determinism contract").
	Workers int

	// obs is the observability sink resolved from the call context; it is
	// threaded down to the partitioners so their coarsen/initial/refine
	// levels report phase timings. Never set by callers — ComputeTimedCtx
	// fills it from obs.FromContext.
	obs *obs.Obs
}

func (o Options) withDefaults() Options {
	if o.Parts == 0 {
		o.Parts = 128
	}
	return o
}

// NeedsGraph reports whether the algorithm operates on the undirected
// adjacency graph of A+Aᵀ (RCM, AMD, ND and GP) rather than on the matrix
// directly (Original, HP and Gray).
func (a Algorithm) NeedsGraph() bool {
	return a == RCM || a == AMD || a == ND || a == GP
}

// PhaseTimings breaks the wall-clock cost of computing and applying one
// ordering into its phases, the breakdown behind the paper's Table 5
// reordering-cost discussion (§4.7).
type PhaseTimings struct {
	// GraphSeconds is the A+Aᵀ adjacency construction time; zero for the
	// algorithms that do not use the graph (Original, HP, Gray).
	GraphSeconds float64
	// OrderSeconds is the ordering algorithm proper.
	OrderSeconds float64
	// PermuteSeconds is the time applying the permutation to the matrix;
	// zero when only the permutation was computed.
	PermuteSeconds float64
}

// Total returns the summed phase times.
func (t PhaseTimings) Total() float64 {
	return t.GraphSeconds + t.OrderSeconds + t.PermuteSeconds
}

// Compute returns the permutation (new-to-old) of the given algorithm for
// the square matrix a. RCM, AMD, ND and GP operate on the undirected graph
// of A+Aᵀ when the pattern of a is unsymmetric; HP and Gray apply to a
// directly.
func Compute(alg Algorithm, a *sparse.CSR, opts Options) (sparse.Perm, error) {
	p, _, err := ComputeTimedCtx(context.Background(), alg, a, opts)
	return p, err
}

// ComputeTimedCtx is Compute driven by a context, reporting the
// graph-construction and ordering phase times (PermuteSeconds stays zero).
// Cancellation and deadline expiry interrupt the ordering algorithm itself
// (BFS, elimination, coarsening and refinement loops all poll the
// context's done channel), so a wedged ordering stops within a bounded
// amount of work instead of running to completion. A cancelled call
// returns the context's error and never a partial permutation. For a
// background context ctx.Done() is nil and every cancellation check is a
// no-op, so the uncancelled path is byte-identical to the historical one.
//
// When ctx carries an obs.Obs (obs.NewContext), each phase additionally
// reports a span — reorder/graph and reorder/order{alg} — generalising the
// PhaseTimings return into the run-wide tracing/metrics view. Without an
// Obs the instrumentation is a nil check per phase and allocates nothing.
func ComputeTimedCtx(ctx context.Context, alg Algorithm, a *sparse.CSR, opts Options) (sparse.Perm, PhaseTimings, error) {
	opts, g, t, err := prepareOrdering(ctx, alg, a, opts)
	if err != nil {
		return nil, t, err
	}
	sp := opts.obs.Span("reorder/order")
	sp.SetAttr("alg", string(alg))
	start := time.Now()
	var p sparse.Perm
	done := ctx.Done()
	switch {
	case g != nil:
		p, err = orderGraph(alg, g, opts, done)
	case alg == Original:
		p = sparse.Identity(a.Rows)
	case alg == HP:
		p, err = hypergraphPartitionOrder(a, opts, done)
	case alg == Gray:
		p = grayOrder(a, grayDenseThreshold)
	default:
		err = fmt.Errorf("reorder: unknown algorithm %q", alg)
	}
	t.OrderSeconds = time.Since(start).Seconds()
	sp.End()
	if cerr := ctx.Err(); cerr != nil {
		// The ordering bailed out early; its partial result must not
		// escape to callers.
		return nil, t, cerr
	}
	if err != nil {
		return nil, t, err
	}
	return p, t, nil
}

// ComputeGPTimedCtx is ComputeTimedCtx for GP at every part count in
// parts at once; opts.Parts is ignored. perms[i] is byte-identical to the
// GP ordering with Parts = parts[i], but the A+Aᵀ graph is built once and
// the part counts share the bisections they have in common
// (partition.KWayMulti), so the phase times cover all part counts
// together.
func ComputeGPTimedCtx(ctx context.Context, a *sparse.CSR, parts []int, opts Options) ([]sparse.Perm, PhaseTimings, error) {
	opts, g, t, err := prepareOrdering(ctx, GP, a, opts)
	if err != nil {
		return nil, t, err
	}
	sp := opts.obs.Span("reorder/order")
	sp.SetAttr("alg", string(GP))
	start := time.Now()
	perms, err := graphPartitionOrders(g, parts, opts, ctx.Done())
	t.OrderSeconds = time.Since(start).Seconds()
	sp.End()
	if cerr := ctx.Err(); cerr != nil {
		return nil, t, cerr
	}
	if err != nil {
		return nil, t, err
	}
	return perms, t, nil
}

// prepareOrdering runs the checks and phases that precede every
// ordering: context and shape checks, option defaults, the fault hooks
// and, for the graph-based algorithms, the A+Aᵀ graph construction
// (returned as g, nil otherwise) with its timing.
func prepareOrdering(ctx context.Context, alg Algorithm, a *sparse.CSR, opts Options) (Options, *graph.Graph, PhaseTimings, error) {
	var t PhaseTimings
	if err := ctx.Err(); err != nil {
		return opts, nil, t, err
	}
	if a.Rows != a.Cols {
		return opts, nil, t, fmt.Errorf("reorder: matrix must be square, got %dx%d", a.Rows, a.Cols)
	}
	opts = opts.withDefaults()
	if opts.obs == nil {
		opts.obs = obs.FromContext(ctx)
	}
	// Fault hooks fire at the phase boundaries, keyed by (alg, shape) so an
	// injected schedule hits the same (matrix, ordering) pairs in every run
	// and resume. Enabled() guards the key construction: with no plan armed
	// the hook is one atomic load and allocates nothing.
	if faultinject.Enabled() {
		if err := faultinject.Check(faultPoint(alg), faultKey(alg, a)); err != nil {
			return opts, nil, t, err
		}
	}
	if !alg.NeedsGraph() {
		return opts, nil, t, nil
	}
	sp := opts.obs.Span("reorder/graph")
	sp.SetAttr("alg", string(alg))
	start := time.Now()
	g, err := graph.FromMatrixSymmetrizedWorkers(a, opts.Workers)
	t.GraphSeconds = time.Since(start).Seconds()
	sp.End()
	if err != nil {
		return opts, nil, t, err
	}
	if err := ctx.Err(); err != nil {
		return opts, nil, t, err
	}
	if faultinject.Enabled() {
		if err := faultinject.Check(faultinject.ReorderOrder, faultKey(alg, a)); err != nil {
			return opts, nil, t, err
		}
	}
	return opts, g, t, nil
}

// faultPoint maps the algorithm's first phase to its fault point: graph
// construction for the graph-based orderings, the ordering itself for the
// rest.
func faultPoint(alg Algorithm) faultinject.Point {
	if alg.NeedsGraph() {
		return faultinject.ReorderGraph
	}
	return faultinject.ReorderOrder
}

// faultKey identifies one (algorithm, matrix shape) pair stably across
// runs and resumes; only built when a fault plan is armed.
func faultKey(alg Algorithm, a *sparse.CSR) string {
	return fmt.Sprintf("%s/%dx%d/%d", alg, a.Rows, a.Cols, a.NNZ())
}

// orderGraph runs a graph-based ordering on a prebuilt adjacency graph.
// done is threaded into each algorithm's inner loops; a cancelled call may
// return a partial permutation, which the caller discards after checking
// the context.
func orderGraph(alg Algorithm, g *graph.Graph, opts Options, done <-chan struct{}) (sparse.Perm, error) {
	switch alg {
	case RCM:
		return reverseCuthillMcKee(g, opts.Workers, done), nil
	case AMD:
		return approxMinimumDegree(g, done), nil
	case ND:
		return nestedDissection(g, ndLeafSize, opts, done)
	case GP:
		return graphPartitionOrder(g, opts, done)
	default:
		return nil, fmt.Errorf("reorder: algorithm %q does not order a graph", alg)
	}
}

// Apply computes the ordering and returns the reordered matrix together
// with the permutation. Symmetric orderings permute rows and columns;
// Gray permutes rows only, as in the paper.
func Apply(alg Algorithm, a *sparse.CSR, opts Options) (*sparse.CSR, sparse.Perm, error) {
	b, p, _, err := ApplyTimedCtx(context.Background(), alg, a, opts)
	return b, p, err
}

// ApplyTimed is Apply reporting the per-phase wall-clock breakdown
// (graph construction, ordering, permutation application).
func ApplyTimed(alg Algorithm, a *sparse.CSR, opts Options) (*sparse.CSR, sparse.Perm, PhaseTimings, error) {
	return ApplyTimedCtx(context.Background(), alg, a, opts)
}

// ApplyTimedCtx is ApplyTimed driven by a context, with ComputeTimedCtx's
// cancellation contract. Before permuting it
// validates the computed permutation (length and bijectivity), so a buggy
// ordering surfaces as a typed error naming the algorithm rather than as a
// silently corrupted matrix.
func ApplyTimedCtx(ctx context.Context, alg Algorithm, a *sparse.CSR, opts Options) (*sparse.CSR, sparse.Perm, PhaseTimings, error) {
	p, t, err := ComputeTimedCtx(ctx, alg, a, opts)
	if err != nil {
		return nil, nil, t, err
	}
	if len(p) != a.Rows {
		return nil, nil, t, fmt.Errorf("reorder: %s produced a permutation of length %d for a %d-row matrix", alg, len(p), a.Rows)
	}
	if verr := p.Validate(); verr != nil {
		return nil, nil, t, fmt.Errorf("reorder: %s produced an invalid permutation: %w", alg, verr)
	}
	if faultinject.Enabled() {
		if err := faultinject.Check(faultinject.ReorderPermute, faultKey(alg, a)); err != nil {
			return nil, nil, t, err
		}
	}
	sp := obs.FromContext(ctx).Span("reorder/permute")
	sp.SetAttr("alg", string(alg))
	start := time.Now()
	var b *sparse.CSR
	if alg.Symmetric() {
		b, err = sparse.PermuteSymmetricWorkers(a, p, opts.Workers)
	} else {
		b, err = sparse.PermuteRowsWorkers(a, p, opts.Workers)
	}
	t.PermuteSeconds = time.Since(start).Seconds()
	sp.End()
	if err != nil {
		return nil, nil, t, err
	}
	return b, p, t, nil
}
