package sparseorder

import (
	"context"
	"io"

	"sparseorder/internal/cholesky"
	"sparseorder/internal/experiments"
	"sparseorder/internal/gen"
	"sparseorder/internal/machine"
	"sparseorder/internal/metrics"
	"sparseorder/internal/reorder"
	"sparseorder/internal/solver"
	"sparseorder/internal/sparse"
	"sparseorder/internal/spmv"
)

// Core sparse-matrix types.
type (
	// Matrix is a sparse matrix in compressed sparse row format with
	// 32-bit column indices and float64 values, the storage the study
	// benchmarks.
	Matrix = sparse.CSR
	// COO is a coordinate-format builder that converts to Matrix.
	COO = sparse.COO
	// Perm is a new-to-old permutation: row i of the reordered matrix is
	// row Perm[i] of the original.
	Perm = sparse.Perm
)

// NewCOO returns an empty coordinate-format matrix builder.
func NewCOO(rows, cols, nnz int) *COO { return sparse.NewCOO(rows, cols, nnz) }

// ReadMatrixMarket parses a Matrix Market stream (coordinate
// real/integer/pattern, general/symmetric/skew-symmetric) into CSR form.
// It is ReadMatrixMarketWorkers at one worker.
func ReadMatrixMarket(r io.Reader) (*Matrix, error) { return sparse.ReadMatrixMarketWorkers(r, 1) }

// ReadMatrixMarketWorkers parses a Matrix Market stream with the streaming
// ingestion pipeline: the entry section is split into line-aligned chunks
// parsed concurrently by workers goroutines (0 = GOMAXPROCS) and assembled
// into CSR in parallel. The result is byte-identical at every worker
// count.
func ReadMatrixMarketWorkers(r io.Reader, workers int) (*Matrix, error) {
	return sparse.ReadMatrixMarketWorkers(r, workers)
}

// WriteMatrixMarket writes m in coordinate real general format.
func WriteMatrixMarket(w io.Writer, m *Matrix) error { return sparse.WriteMatrixMarket(w, m) }

// Symmetrize returns A + Aᵀ, the symmetric pattern the graph-based
// orderings operate on when the input is unsymmetric.
func Symmetrize(a *Matrix) (*Matrix, error) { return sparse.Symmetrize(a) }

// PermuteSymmetric returns P·A·Pᵀ.
func PermuteSymmetric(a *Matrix, p Perm) (*Matrix, error) {
	return sparse.PermuteSymmetricWorkers(a, p, 1)
}

// PermuteRows returns P·A (rows only, as the Gray ordering is applied).
func PermuteRows(a *Matrix, p Perm) (*Matrix, error) { return sparse.PermuteRowsWorkers(a, p, 1) }

// Ordering names one of the study's reordering algorithms.
type Ordering = reorder.Algorithm

// The orderings of the study (paper Table 1) plus the Original baseline.
const (
	Original = reorder.Original
	RCM      = reorder.RCM // Reverse Cuthill-McKee (bandwidth reduction)
	AMD      = reorder.AMD // approximate minimum degree (fill reduction)
	ND       = reorder.ND  // nested dissection (fill reduction)
	GP       = reorder.GP  // graph partitioning, edge-cut objective
	HP       = reorder.HP  // column-net hypergraph partitioning, cut-net
	Gray     = reorder.Gray
)

// Orderings lists the six algorithms in the paper's order.
var Orderings = reorder.Algorithms

// OrderingOptions configure a reordering run: the part count of GP and HP
// (0 means the paper's 128), the partitioners' seed and the worker count
// (0 means GOMAXPROCS). Everything else is fixed at the paper's single
// configuration of each algorithm (§3.3, Table 1): METIS defaults for GP
// and ND, the cut-net metric for HP, and a 16-bit bitmap with a 20-nonzero
// dense threshold for Gray.
type OrderingOptions = reorder.Options

// ComputeOrdering returns the permutation of the given algorithm without
// applying it.
func ComputeOrdering(alg Ordering, a *Matrix, opts OrderingOptions) (Perm, error) {
	return reorder.Compute(alg, a, opts)
}

// Reorder computes and applies an ordering, returning the reordered matrix
// and the permutation. Symmetric algorithms permute rows and columns
// simultaneously; Gray permutes rows only.
func Reorder(alg Ordering, a *Matrix, opts OrderingOptions) (*Matrix, Perm, error) {
	return reorder.Apply(alg, a, opts)
}

// SpMV computes y = A·x serially (the reference kernel). All SpMV entry
// points validate vector lengths (len(x) ≥ a.Cols, len(y) ≥ a.Rows) and
// return a descriptive error instead of panicking inside a goroutine.
func SpMV(a *Matrix, x, y []float64) error { return spmv.Serial(a, x, y) }

// SpMV1D computes y = A·x with the study's 1D kernel: rows are split into
// equal contiguous blocks, one per thread.
func SpMV1D(a *Matrix, x, y []float64, threads int) error { return spmv.Mul1D(a, x, y, threads) }

// Plan2D is the reusable preprocessing of the 2D (nonzero-balanced)
// kernel: its split points, read-only once built, so one plan may serve
// concurrent SpMV2D calls. A plan is valid only for the exact matrix it
// was built from and must be rebuilt after any structural change; SpMV2D
// rejects mismatched plans. See spmv.Plan2D for the full reuse contract.
type Plan2D = spmv.Plan2D

// NewPlan2D builds the 2D kernel's nonzero split for a fixed matrix and
// thread count; the cost is amortised over many SpMV iterations.
func NewPlan2D(a *Matrix, threads int) (*Plan2D, error) { return spmv.NewPlan2D(a, threads) }

// SpMV2D computes y = A·x with the study's 2D kernel using a prebuilt
// plan. The plan must have been built from this exact matrix; a stale or
// mismatched plan is rejected with an error.
func SpMV2D(a *Matrix, x, y []float64, p *Plan2D) error { return spmv.Mul2D(a, x, y, p) }

// PlanMerge is the reusable preprocessing of the merge-based kernel of
// Merrill and Garland, of which the study's 2D kernel is a simplified
// version: its merge-path split points, read-only once built, so one plan
// may serve concurrent SpMVMerge calls.
type PlanMerge = spmv.PlanMerge

// NewPlanMerge builds the merge-path split for a fixed matrix and thread
// count.
func NewPlanMerge(a *Matrix, threads int) (*PlanMerge, error) { return spmv.NewPlanMerge(a, threads) }

// SpMVMerge computes y = A·x with the merge-based kernel, which balances
// rows and nonzeros simultaneously (robust even to millions of empty rows).
// Like SpMV2D it rejects a plan built for a different matrix.
func SpMVMerge(a *Matrix, x, y []float64, p *PlanMerge) error { return spmv.MulMerge(a, x, y, p) }

// SolveOptions configure the conjugate-gradient solver, including which
// SpMV kernel runs each iteration's A·p product (SolveOptions.Kernel).
type SolveOptions = solver.Options

// SolveKernel selects the SpMV kernel used inside SolveCG above one
// thread. The planned kernels build their plan once per solve and reuse it
// every iteration — the paper's §4.7 amortization applied to kernel
// preprocessing. At one thread every kernel runs the same fused serial
// multiply, which also returns the iteration's pᵀAp.
type SolveKernel = solver.Kernel

// The CG SpMV kernels.
const (
	SolveKernel1D    = solver.Kernel1D // 1D row-split (default)
	SolveKernel2D    = solver.Kernel2D // 2D nonzero-balanced, plan reused across iterations
	SolveKernelMerge = solver.KernelMerge
)

// SolveResult reports a solve's outcome.
type SolveResult = solver.Result

// SolveCG solves A·x = b for SPD A with (optionally Jacobi-preconditioned)
// conjugate gradients built on the parallel SpMV kernels — the iterative
// workload over which the paper's §4.7 amortises reordering costs. It
// rejects a non-finite or negative Tol and a negative MaxIter or Threads;
// zero values take their defaults.
func SolveCG(a *Matrix, b []float64, opts SolveOptions) (*SolveResult, error) {
	return solver.CG(a, b, opts)
}

// Features bundles the study's order-sensitive matrix features.
type Features = metrics.Features

// ComputeFeatures evaluates bandwidth, profile, off-diagonal nonzero count
// (over a blocks×blocks grid) and the 1D load-imbalance factor.
func ComputeFeatures(a *Matrix, blocks, threads int) Features {
	return metrics.ComputeWorkers(a, blocks, threads, 1)
}

// FillRatio returns nnz(L)/nnz(A) for the Cholesky factor of the
// pattern-symmetric matrix a (paper §4.6), computed with the
// Gilbert-Ng-Peyton counting algorithm — no numeric factorisation.
func FillRatio(a *Matrix) (float64, error) { return cholesky.FillRatio(a) }

// CholeskyColCounts returns the per-column nonzero counts of the Cholesky
// factor L, diagonal included.
func CholeskyColCounts(a *Matrix) ([]int64, error) { return cholesky.ColCounts(a) }

// EliminationTree returns the parent array of the elimination tree.
func EliminationTree(a *Matrix) ([]int32, error) { return cholesky.EliminationTree(a) }

// CholeskyFactor is a numeric sparse Cholesky factor L with A = L·Lᵀ.
type CholeskyFactor = cholesky.Factor

// CholeskyFactorize numerically factorises the SPD matrix a with the
// up-looking simplicial algorithm; its structure is sized exactly by the
// Gilbert-Ng-Peyton counts, so it doubles as an executable validation of
// the fill analysis.
func CholeskyFactorize(a *Matrix) (*CholeskyFactor, error) { return cholesky.Factorize(a) }

// CholeskyFlops returns the factorisation flop count Σ c_j² implied by the
// column counts — the cost fill-reducing orderings minimise.
func CholeskyFlops(a *Matrix) (int64, error) { return cholesky.FlopCount(a) }

// MachineModel describes one of the eight CPUs of the study's Table 2.
type MachineModel = machine.Machine

// Kernel selects the 1D or 2D SpMV algorithm.
type Kernel = machine.Kernel

// The two SpMV kernels of the study.
const (
	Kernel1D = machine.Kernel1D
	Kernel2D = machine.Kernel2D
)

// Machines returns the models of the study's eight CPUs.
func Machines() []MachineModel { return machine.Table2 }

// MachineByName returns one machine model ("Skylake", "Ice Lake",
// "Naples", "Rome", "Milan A", "Milan B", "TX2", "Hi1620").
func MachineByName(name string) (MachineModel, bool) { return machine.ByName(name) }

// PredictSpMV estimates SpMV performance of a on the given machine model.
type Prediction = machine.Estimate

// PredictSpMV runs the locality- and balance-aware cost model used to
// reproduce the study's cross-architecture experiments.
func PredictSpMV(a *Matrix, m MachineModel, k Kernel) Prediction {
	return machine.EstimateSpMV(a, m, k)
}

// CollectionMatrix is one named matrix of the synthetic collection that
// stands in for the SuiteSparse corpus.
type CollectionMatrix = gen.Matrix

// Scale selects the size of the synthetic collection.
type Scale = gen.Scale

// Collection scales.
const (
	ScaleTest  = gen.ScaleTest
	ScaleStudy = gen.ScaleStudy
	ScaleLarge = gen.ScaleLarge
)

// Collection generates the deterministic synthetic matrix collection.
func Collection(scale Scale, seed int64) []CollectionMatrix { return gen.Collection(scale, seed) }

// StudyConfig controls a full study run (scale, seed, machines, worker
// count, per-matrix timeout, progress logging).
type StudyConfig = experiments.Config

// StudyResult holds the study's per-matrix results in collection order
// plus the matrices that failed to evaluate.
type StudyResult = experiments.StudyResult

// MatrixError records one matrix whose evaluation failed (its name, the
// ordering involved if the failure was ordering-specific, and the cause).
type MatrixError = experiments.MatrixError

// RunStudy evaluates the full synthetic collection concurrently with
// fault isolation: a matrix that fails — by error, panic, or timeout — is
// recorded in StudyResult.Failures instead of aborting the run, and
// results are deterministic for any worker count.
func RunStudy(cfg StudyConfig) (*StudyResult, error) { return experiments.RunStudy(cfg) }

// RunStudyContext is RunStudy with cancellation: cancelling the context
// stops the study and returns the context's error.
func RunStudyContext(ctx context.Context, cfg StudyConfig) (*StudyResult, error) {
	return experiments.RunStudyContext(ctx, cfg)
}

// RunStudyMatrices runs the study pipeline over an explicit matrix list
// (e.g. matrices read from Matrix Market files) instead of the generated
// collection, with the same concurrency and failure semantics.
func RunStudyMatrices(ctx context.Context, cfg StudyConfig, ms []CollectionMatrix) (*StudyResult, error) {
	return experiments.RunStudyMatrices(ctx, cfg, ms)
}
