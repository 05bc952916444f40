package experiments

import (
	"context"
	"fmt"
	"runtime"
	"slices"

	"sparseorder/internal/gen"
	"sparseorder/internal/graph"
	"sparseorder/internal/metrics"
	"sparseorder/internal/reorder"
	"sparseorder/internal/sparse"
)

// ReorderBench is the serial-vs-parallel wall-clock comparison of the
// reordering hot path, the document committed as BENCH_reorder.json. It
// backs the Table 5 reordering-time breakdown: the per-path speedups show
// how much of a reordering's cost the Workers option recovers.
type ReorderBench struct {
	BenchHeader
	Matrices []ReorderBenchMatrix `json:"matrices"`
}

// ReorderBenchMatrix is the measurement set for one generated matrix.
type ReorderBenchMatrix struct {
	Name string            `json:"name"`
	Rows int               `json:"rows"`
	NNZ  int               `json:"nnz"`
	Runs []ReorderBenchRun `json:"runs"`
}

// ReorderBenchRun is one (path, worker count) wall-clock measurement.
// Speedup is the serial (workers=1) time of the same path divided by this
// run's time.
type ReorderBenchRun struct {
	Path    string  `json:"path"` // graph, permute, features, rcm, combined
	Workers int     `json:"workers"`
	Seconds float64 `json:"seconds"`
	Speedup float64 `json:"speedup"`
}

// reorderBenchPaths are the measured slices of the hot path. "combined"
// is the permute+symmetrize+features pipeline the study pays once per
// (matrix, ordering); amd/nd/gp/hp are the full ordering pipelines
// (graph build included), measured end to end like the study pays them.
var reorderBenchPaths = []string{"graph", "permute", "features", "rcm", "combined", "amd", "nd", "gp", "hp"}

// reorderBenchOrderings maps the ordering bench paths to their algorithms.
// At study scale one run costs 0.46–4.65 s (BENCH_reorder.json, 2-vCPU
// host) and all ordering rows together about 22 s, so the -repeats
// best-of (10 by default) would stretch them to minutes. They are
// measured best-of-1 instead, and only at the serial baseline and the
// four-worker count the acceptance numbers are quoted at: a run that long
// is not moved by timer resolution or a single GC, and the few-percent
// run-to-run spread it keeps is small next to the worker speedups and
// coarsening changes these rows are read for.
var reorderBenchOrderings = map[string]reorder.Algorithm{
	"amd": reorder.AMD,
	"nd":  reorder.ND,
	"gp":  reorder.GP,
	"hp":  reorder.HP,
}

// reorderBenchSeed seeds the ordering pipelines under measurement; any
// fixed value does, the bench compares worker counts, not orderings.
const reorderBenchSeed = 42

// ReorderBenchMatrices returns the generated inputs for RunReorderBench:
// a scrambled 3D grid (structurally symmetric), a dense-row-contaminated
// unsymmetric matrix that exercises the A+Aᵀ union path, and an R-MAT
// power-law graph, on which heavy-edge matching stalls and the
// partitioners' coarsening rule decides their cost. At ScaleTest the
// matrices shrink to CI-smoke sizes — still above the ND/GP/HP fork
// minimums so the smoke exercises the parallel paths, but seconds instead
// of minutes to measure. Any other scale returns the set of 0.8–1.2M
// nonzeros the committed acceptance numbers are quoted at.
func ReorderBenchMatrices(seed int64, scale gen.Scale) []gen.Matrix {
	if scale == gen.ScaleTest {
		return []gen.Matrix{
			{Name: "grid3d_perm_small", Group: "structural", Kind: "fem-3d-scrambled",
				A: gen.Scramble(gen.Grid3D(18, 18, 18), seed+1)},
			{Name: "cfd_dense_unsym_small", Group: "CFD", Kind: "dense-rows",
				A: gen.WithDenseRows(gen.Scramble(gen.Grid2D(80, 80), seed+2), 4, 0.1, seed+3)},
			{Name: "rmat12_small", Group: "graph", Kind: "power-law",
				A: gen.RMAT(12, 6, seed+4)},
		}
	}
	return []gen.Matrix{
		{Name: "grid3d_perm_large", Group: "structural", Kind: "fem-3d-scrambled",
			A: gen.Scramble(gen.Grid3D(56, 56, 56), seed+1)},
		{Name: "cfd_dense_unsym", Group: "CFD", Kind: "dense-rows",
			A: gen.WithDenseRows(gen.Scramble(gen.Grid2D(420, 420), seed+2), 12, 0.1, seed+3)},
		{Name: "rmat16", Group: "graph", Kind: "power-law",
			A: gen.RMAT(16, 6, seed+4)},
	}
}

// benchesOrdering reports whether RunReorderBench measures the ordering
// path on a matrix of the given kind. Minimum degree and dissection on
// near-dense rows are a known pathology (production AMD defers dense rows;
// this reproduction's does not), so the dense-row matrix is here only to
// exercise the A+Aᵀ union path of the graph/permute/features slices. The
// power-law matrix's hubs are the same pathology for AMD, and it is here
// for the partitioners: it runs gp, nd and hp.
func benchesOrdering(kind, path string) bool {
	switch kind {
	case "dense-rows":
		return false
	case "power-law":
		return path != "amd"
	}
	return true
}

// RunReorderBench measures the reordering hot path serial vs parallel.
// workerCounts must start with 1 (the serial baseline); each path is run
// repeats times per worker count and the best time is kept. The RCM
// permutation is computed once per matrix and reused as the permutation
// under test, so "permute" measures a realistic (locality-changing)
// application. The "rcm" path is the ordering time on a built graph, read
// from ComputeTimedCtx's OrderSeconds.
func RunReorderBench(matrices []gen.Matrix, workerCounts []int, repeats int) (*ReorderBench, error) {
	if len(workerCounts) == 0 || workerCounts[0] != 1 {
		return nil, fmt.Errorf("experiments: worker counts must start with the serial baseline 1, got %v", workerCounts)
	}
	out := &ReorderBench{BenchHeader: newBenchHeader(repeats)}
	for _, m := range matrices {
		a := m.A
		p, err := reorder.Compute(reorder.RCM, a, reorder.Options{Workers: 1})
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %v", m.Name, err)
		}
		bm := ReorderBenchMatrix{Name: m.Name, Rows: a.Rows, NNZ: a.NNZ()}
		serial := map[string]float64{}
		for _, w := range workerCounts {
			for _, path := range reorderBenchPaths {
				reps, best := out.Repeats, 0.0
				var run func() error
				switch path {
				case "graph":
					run = func() error { _, err := graph.FromMatrixSymmetrizedWorkers(a, w); return err }
				case "permute":
					run = func() error { _, err := sparse.PermuteSymmetricWorkers(a, p, w); return err }
				case "features":
					run = func() error { metrics.ComputeWorkers(a, 128, 128, w); return nil }
				case "combined":
					run = func() error {
						b, err := sparse.PermuteSymmetricWorkers(a, p, w)
						if err != nil {
							return err
						}
						if _, err := graph.FromMatrixSymmetrizedWorkers(b, w); err != nil {
							return err
						}
						metrics.ComputeWorkers(b, 128, 128, w)
						return nil
					}
				case "rcm":
					best, err = orderBest(reps, a, w)
				default:
					if !benchesOrdering(m.Kind, path) || (w != 1 && w != 4) {
						continue
					}
					reps = 1
					alg := reorderBenchOrderings[path]
					run = func() error {
						_, err := reorder.Compute(alg, a, reorder.Options{
							Seed: reorderBenchSeed, Parts: 8, Workers: w})
						return err
					}
				}
				if run != nil {
					var secs []float64
					if secs, err = TimeRuns(reps, run); err == nil {
						best = slices.Min(secs)
					}
				}
				if err != nil {
					return nil, fmt.Errorf("experiments: %s/%s workers=%d: %v", m.Name, path, w, err)
				}
				r := ReorderBenchRun{Path: path, Workers: w, Seconds: best}
				if w == 1 {
					serial[path] = best
					r.Speedup = 1
				} else if best > 0 {
					r.Speedup = serial[path] / best
				}
				bm.Runs = append(bm.Runs, r)
			}
		}
		out.Matrices = append(out.Matrices, bm)
	}
	return out, nil
}

// orderBest is the best-of for the RCM ordering proper: it keeps the best
// OrderSeconds of reps runs, each after a forced GC as in TimeRuns, so the
// A+Aᵀ graph each run builds first stays off the figure and the time is
// that of ordering a built graph.
func orderBest(reps int, a *sparse.CSR, workers int) (float64, error) {
	best := 0.0
	for it := 0; it < reps; it++ {
		runtime.GC()
		_, t, err := reorder.ComputeTimedCtx(context.Background(), reorder.RCM, a, reorder.Options{Workers: workers})
		if err != nil {
			return 0, err
		}
		if best == 0 || t.OrderSeconds < best {
			best = t.OrderSeconds
		}
	}
	return best, nil
}
