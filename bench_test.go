// Benchmarks regenerating every table and figure of the paper (one
// Benchmark per experiment, per DESIGN.md's per-experiment index), plus
// kernel and reordering micro-benchmarks. The ablation benches live beside
// the variants they measure, in internal/reorder, internal/partition and
// internal/spmv.
//
// The experiment benches share one study run (the dominant cost) through
// sync.Once and report headline values via b.ReportMetric, so
// `go test -bench=.` both regenerates and summarises the reproduction.
package sparseorder_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"sparseorder/internal/cholesky"
	"sparseorder/internal/experiments"
	"sparseorder/internal/gen"
	"sparseorder/internal/graph"
	"sparseorder/internal/machine"
	"sparseorder/internal/partition"
	"sparseorder/internal/reorder"
	"sparseorder/internal/solver"
	"sparseorder/internal/sparse"
	"sparseorder/internal/spmv"
	"sparseorder/internal/stats"
)

var (
	studyOnce sync.Once
	studyRes  *experiments.StudyResult
	studyErr  error
)

func sharedStudy(b *testing.B) *experiments.StudyResult {
	b.Helper()
	studyOnce.Do(func() {
		studyRes, studyErr = experiments.RunStudy(experiments.Config{Scale: gen.ScaleTest, Seed: 42})
	})
	if studyErr != nil {
		b.Fatal(studyErr)
	}
	return studyRes
}

func geoOf(s *experiments.StudyResult, k machine.Kernel, alg reorder.Algorithm) float64 {
	var gs []float64
	for _, m := range s.Config.Machines {
		gs = append(gs, stats.GeoMean(s.Speedups(m.Name, k, alg)))
	}
	return stats.GeoMean(gs)
}

// BenchmarkFig1 regenerates Figure 1: RCM/ND/GP speedups for the three
// showcase matrices on Milan B and Ice Lake.
func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RenderFig1(experiments.Config{Scale: gen.ScaleTest, Seed: 42}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2_1DSpeedups regenerates the Figure 2 box statistics and
// reports the median GP speedup on Milan B.
func BenchmarkFig2_1DSpeedups(b *testing.B) {
	s := sharedStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.RenderFig2(s)
	}
	b.ReportMetric(stats.Quantile(s.Speedups("Milan B", machine.Kernel1D, reorder.GP), 0.5), "GP-median-speedup")
}

// BenchmarkTable3 regenerates Table 3 and reports the all-machine GP and
// Gray geometric means (the paper's extremes: 1.205 and 0.757).
func BenchmarkTable3(b *testing.B) {
	s := sharedStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.RenderTable3(s)
	}
	b.ReportMetric(geoOf(s, machine.Kernel1D, reorder.GP), "GP-geomean")
	b.ReportMetric(geoOf(s, machine.Kernel1D, reorder.Gray), "Gray-geomean")
}

// BenchmarkFig3_2DSpeedups regenerates the Figure 3 box statistics.
func BenchmarkFig3_2DSpeedups(b *testing.B) {
	s := sharedStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.RenderFig3(s)
	}
	b.ReportMetric(stats.Quantile(s.Speedups("Hi1620", machine.Kernel2D, reorder.RCM), 0.5), "RCM-ARM-median")
}

// BenchmarkTable4 regenerates Table 4 (2D geometric means).
func BenchmarkTable4(b *testing.B) {
	s := sharedStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.RenderTable4(s)
	}
	b.ReportMetric(geoOf(s, machine.Kernel2D, reorder.GP), "GP-geomean")
}

// BenchmarkFig4 regenerates the Figure 4 per-class analysis.
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RenderFig4(experiments.Config{Scale: gen.ScaleTest, Seed: 42}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5 regenerates the Figure 5 performance profiles and reports
// the fraction of matrices for which GP attains the best off-diagonal
// count (the paper's ~0.65).
func BenchmarkFig5(b *testing.B) {
	s := sharedStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RenderFig5(s); err != nil {
			b.Fatal(err)
		}
	}
	p, err := experiments.Fig5Profiles(s)
	if err != nil {
		b.Fatal(err)
	}
	for i, alg := range reorder.AllOrderings {
		if alg == reorder.GP {
			b.ReportMetric(p["offdiag"][i].Value(1), "GP-best-offdiag-fraction")
		}
	}
}

// BenchmarkFig6 regenerates the Figure 6 Cholesky fill box statistics and
// reports the AMD median fill ratio.
func BenchmarkFig6(b *testing.B) {
	s := sharedStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.RenderFig6(s)
	}
	var xs []float64
	for _, r := range s.Matrices {
		if fr, ok := r.FillRatio[reorder.AMD]; ok {
			xs = append(xs, fr)
		}
	}
	b.ReportMetric(stats.Quantile(xs, 0.5), "AMD-median-fill")
}

// BenchmarkTable5_ReorderTime regenerates Table 5 (reordering overhead and
// break-even analysis) on the ten-matrix large set.
func BenchmarkTable5_ReorderTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable5(experiments.Config{Scale: gen.ScaleTest, Seed: 42, Repeats: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDenseCSRRef regenerates the §4.2 tall-skinny dense reference.
func BenchmarkDenseCSRRef(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RenderDenseCSRRef(experiments.Config{Scale: gen.ScaleTest, Seed: 1, Repeats: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Kernel micro-benchmarks -------------------------------------------

type spmvCase struct {
	name string
	a    *sparse.CSR
}

// spmvCases are the kernel benchmarks' inputs: a scrambled 2D grid and
// the scrambled 32³ mesh the mesh-solve workload solves.
func spmvCases() []spmvCase {
	return []spmvCase{
		{"grid2d-120", gen.Scramble(gen.Grid2D(120, 120), 1)},
		{"mesh3d-32", gen.Scramble(gen.Grid3D(32, 32, 32), 42)},
	}
}

// benchSpMV runs mul on every spmvCases input with a nonzero x.
func benchSpMV(b *testing.B, mul func(a *sparse.CSR, x, y []float64) func()) {
	for _, c := range spmvCases() {
		b.Run(c.name, func(b *testing.B) {
			x := make([]float64, c.a.Cols)
			y := make([]float64, c.a.Rows)
			for i := range x {
				x[i] = 1 / float64(i+1)
			}
			run := mul(c.a, x, y)
			b.SetBytes(int64(12 * c.a.NNZ()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}

func BenchmarkSpMV1D(b *testing.B) {
	threads := runtime.GOMAXPROCS(0)
	benchSpMV(b, func(a *sparse.CSR, x, y []float64) func() {
		return func() { spmv.Mul1D(a, x, y, threads) }
	})
}

func BenchmarkSpMV2D(b *testing.B) {
	threads := runtime.GOMAXPROCS(0)
	benchSpMV(b, func(a *sparse.CSR, x, y []float64) func() {
		plan, err := spmv.NewPlan2D(a, threads)
		if err != nil {
			b.Fatal(err)
		}
		return func() { spmv.Mul2D(a, x, y, plan) }
	})
}

func BenchmarkSpMVSerial(b *testing.B) {
	benchSpMV(b, func(a *sparse.CSR, x, y []float64) func() {
		return func() { spmv.Serial(a, x, y) }
	})
}

func BenchmarkSpMVMerge(b *testing.B) {
	threads := runtime.GOMAXPROCS(0)
	benchSpMV(b, func(a *sparse.CSR, x, y []float64) func() {
		plan, err := spmv.NewPlanMerge(a, threads)
		if err != nil {
			b.Fatal(err)
		}
		return func() { spmv.MulMerge(a, x, y, plan) }
	})
}

// BenchmarkCGMesh runs the mesh-solve workload's solve: CG on the
// scrambled 32³ mesh with the 2D kernel on one thread, to tolerance 1e-8.
func BenchmarkCGMesh(b *testing.B) {
	a := gen.Scramble(gen.Grid3D(32, 32, 32), 42)
	rng := rand.New(rand.NewSource(1))
	xTrue := make([]float64, a.Rows)
	for i := range xTrue {
		xTrue[i] = rng.Float64()*2 - 1
	}
	rhs := make([]float64, a.Rows)
	spmv.Serial(a, xTrue, rhs)
	opts := solver.Options{Tol: 1e-8, Threads: 1, Kernel: solver.Kernel2D}
	var iters int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := solver.CG(a, rhs, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatalf("CG did not converge in %d iterations", res.Iterations)
		}
		iters = res.Iterations
	}
	b.ReportMetric(float64(iters), "iterations")
}

// BenchmarkReorder times each reordering algorithm on the same scrambled
// mesh (the Table 5 cost ranking in miniature: Gray < RCM < AMD/GP < ND/HP).
func BenchmarkReorder(b *testing.B) {
	a := gen.Scramble(gen.Grid2D(80, 80), 3)
	for _, alg := range reorder.Algorithms {
		b.Run(string(alg), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := reorder.Compute(alg, a, reorder.Options{Seed: 1, Parts: 32}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReorderWorkers runs every ordering serial (workers=1) and
// parallel (workers=4) on a matrix above the parallel engagement thresholds
// (6400 vertices clears the ND/GP/HP fork minimums), so the CI benchmark
// smoke compiles and exercises each parallel ordering path; AMD is serial
// at every worker count. The BENCH_reorder.json speedups are measured at
// study scale by `study -exp benchreorder`, not here.
func BenchmarkReorderWorkers(b *testing.B) {
	a := gen.Scramble(gen.Grid2D(80, 80), 3)
	for _, alg := range reorder.Algorithms {
		for _, w := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/workers=%d", alg, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := reorder.Compute(alg, a, reorder.Options{Seed: 1, Parts: 32, Workers: w}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkCholeskyFactorize times the numeric factorisation under the two
// fill-extremes of Figure 6: AMD (least fill) vs the scrambled original.
func BenchmarkCholeskyFactorize(b *testing.B) {
	a := gen.Scramble(gen.Grid2D(40, 40), 9)
	b.Run("original", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cholesky.Factorize(a); err != nil {
				b.Fatal(err)
			}
		}
	})
	amdM, _, err := reorder.Apply(reorder.AMD, a, reorder.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("amd", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cholesky.Factorize(amdM); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParallelBisection measures the deterministic parallel recursive
// bisection against the serial baseline (identical output, see the
// partition tests).
func BenchmarkParallelBisection(b *testing.B) {
	g, err := graph.FromMatrixSymmetrizedWorkers(gen.Grid2D(150, 150), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := partition.KWayMulti(g, []int{32}, partition.Options{Seed: 2, Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := partition.KWayMulti(g, []int{32}, partition.Options{Seed: 2, Workers: 0}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
