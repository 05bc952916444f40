package experiments

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"sparseorder/internal/gen"
	"sparseorder/internal/reorder"
	"sparseorder/internal/solver"
	"sparseorder/internal/sparse"
	"sparseorder/internal/spmv"
	"sparseorder/internal/stats"
)

// SolveBench splits the CG solves of the perfbench mesh-solve workload
// into their multiplies and their vector sweeps, the per-layer record
// committed as BENCH_solve.json. Each solve runs solver.SolveReordered
// with the 2D kernel at one thread to tolerance 1e-8, as the workload
// does. The orderings are timed round-robin within each repeat, so a slow
// spell of a shared host lands on all of them alike.
//
// A committed file may also hold "parent", the same sweep run on the
// parent commit of a change to the solve, on the same host just before,
// merged in by hand as its before/after record; -exp benchsolve never
// writes it.
type SolveBench struct {
	HostCPUs   int `json:"host_cpus"`
	GoMaxProcs int `json:"gomaxprocs"`
	Repeats    int `json:"repeats"`
	// Seed seeds the orderings; -exp benchsolve also scrambles the mesh
	// with it.
	Seed    int64   `json:"seed"`
	Rows    int     `json:"rows"`
	NNZ     int     `json:"nnz"`
	Kernel  string  `json:"kernel"`
	Threads int     `json:"threads"`
	Tol     float64 `json:"tol"`
	// MultiplyReps is how many standalone multiplies each repeat times
	// per ordering.
	MultiplyReps int                  `json:"multiply_reps"`
	Orderings    []SolveBenchOrdering `json:"orderings"`
}

// SolveBenchOrdering is one ordering's solve split. MultiplySeconds is the
// median standalone multiply times the solve's multiply count, and
// MultiplyQuartilesUs the standalone multiply's quartiles, its own
// spread; SweepSeconds is the median solve minus MultiplySeconds, the
// time CG spends outside the multiplies, and SweepShare its share of the
// median solve.
type SolveBenchOrdering struct {
	Ordering            string     `json:"ordering"`
	Iterations          int        `json:"iterations"`
	Multiplies          int        `json:"multiplies"`
	BestSolveSeconds    float64    `json:"best_solve_s"`
	MedianSolveSeconds  float64    `json:"median_solve_s"`
	MultiplyQuartilesUs [3]float64 `json:"multiply_us_quartiles"`
	MultiplySeconds     float64    `json:"multiply_s"`
	SweepSeconds        float64    `json:"sweep_s"`
	SweepShare          float64    `json:"sweep_share"`
}

const (
	solveBenchTol          = 1e-8
	solveBenchMultiplyReps = 25
)

// solveBenchOrderings are the mesh-solve workload's orderings, Original
// first.
var solveBenchOrderings = []reorder.Algorithm{reorder.Original, reorder.RCM, reorder.AMD, reorder.ND, reorder.GP}

// SolveBenchMatrix returns the mesh-solve workload's matrix: the 32³
// 7-point mesh scrambled with seed.
func SolveBenchMatrix(seed int64) *sparse.CSR {
	return gen.Scramble(gen.Grid3D(32, 32, 32), seed)
}

// RunSolveBench orders a with each of the mesh-solve orderings (reorder
// seed seed), then times repeats rounds of one solve and
// solveBenchMultiplyReps standalone multiplies per ordering. The right-hand
// side is A·x_true with x_true uniform in [-1, 1) from seed 1. Every solve
// must converge with the same iteration count in every round.
func RunSolveBench(a *sparse.CSR, seed int64, repeats int) (*SolveBench, error) {
	if repeats < 1 {
		repeats = 1
	}
	rng := rand.New(rand.NewSource(1))
	xTrue := make([]float64, a.Rows)
	for i := range xTrue {
		xTrue[i] = rng.Float64()*2 - 1
	}
	b := make([]float64, a.Rows)
	if err := spmv.Serial(a, xTrue, b); err != nil {
		return nil, fmt.Errorf("experiments: solve bench rhs: %w", err)
	}

	type ordered struct {
		m      *sparse.CSR
		perm   sparse.Perm
		plan   *spmv.Plan2D
		solves []float64
		muls   []float64
		iters  int
		count  int
	}
	const threads = 1
	runs := make([]*ordered, len(solveBenchOrderings))
	for i, alg := range solveBenchOrderings {
		m, perm, err := reorder.Apply(alg, a, reorder.Options{Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("experiments: solve bench %s: %w", alg, err)
		}
		plan, err := spmv.NewPlan2D(m, threads)
		if err != nil {
			return nil, fmt.Errorf("experiments: solve bench %s: %w", alg, err)
		}
		runs[i] = &ordered{m: m, perm: perm, plan: plan}
	}

	opts := solver.Options{Tol: solveBenchTol, Threads: threads, Kernel: solver.Kernel2D}
	x, y := make([]float64, a.Cols), make([]float64, a.Rows)
	for i := range x {
		x[i] = 1 / float64(i+1)
	}
	for rep := 0; rep < repeats; rep++ {
		for i, r := range runs {
			alg := solveBenchOrderings[i]
			start := time.Now()
			res, err := solver.SolveReordered(r.m, r.perm, b, opts)
			el := time.Since(start).Seconds()
			if err != nil {
				return nil, fmt.Errorf("experiments: solve bench %s: %w", alg, err)
			}
			if !res.Converged {
				return nil, fmt.Errorf("experiments: solve bench %s: no convergence in %d iterations", alg, res.Iterations)
			}
			if rep > 0 && (res.Iterations != r.iters || res.SpMVCount != r.count) {
				return nil, fmt.Errorf("experiments: solve bench %s: %d iterations, earlier %d", alg, res.Iterations, r.iters)
			}
			r.iters, r.count = res.Iterations, res.SpMVCount
			r.solves = append(r.solves, el)
			for range solveBenchMultiplyReps {
				start := time.Now()
				if err := spmv.Mul2D(r.m, x, y, r.plan); err != nil {
					return nil, fmt.Errorf("experiments: solve bench %s: %w", alg, err)
				}
				r.muls = append(r.muls, time.Since(start).Seconds())
			}
		}
	}

	out := &SolveBench{
		HostCPUs:     runtime.NumCPU(),
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		Repeats:      repeats,
		Seed:         seed,
		Rows:         a.Rows,
		NNZ:          a.NNZ(),
		Kernel:       solver.Kernel2D.String(),
		Threads:      threads,
		Tol:          solveBenchTol,
		MultiplyReps: solveBenchMultiplyReps,
	}
	for i, r := range runs {
		med := stats.Quantile(r.solves, 0.5)
		mul := stats.Quantile(r.muls, 0.5) * float64(r.count)
		out.Orderings = append(out.Orderings, SolveBenchOrdering{
			Ordering:           string(solveBenchOrderings[i]),
			Iterations:         r.iters,
			Multiplies:         r.count,
			BestSolveSeconds:   slices.Min(r.solves),
			MedianSolveSeconds: med,
			MultiplyQuartilesUs: [3]float64{
				stats.Quantile(r.muls, 0.25) * 1e6, stats.Quantile(r.muls, 0.5) * 1e6, stats.Quantile(r.muls, 0.75) * 1e6},
			MultiplySeconds: mul,
			SweepSeconds:    med - mul,
			SweepShare:      (med - mul) / med,
		})
	}
	return out, nil
}

// RenderSolveBench formats a SolveBench as the indented JSON document
// committed as BENCH_solve.json.
func RenderSolveBench(b *SolveBench) (string, error) {
	buf, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return "", err
	}
	return string(buf) + "\n", nil
}
