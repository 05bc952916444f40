package reorder

import (
	"context"
	"testing"

	"sparseorder/internal/gen"
	"sparseorder/internal/graph"
	"sparseorder/internal/machine"
	"sparseorder/internal/obs"
	"sparseorder/internal/partition"
	"sparseorder/internal/sparse"
)

// graphPartitionOrderWeighted is the ablation variant of GP (see
// DESIGN.md): vertices are weighted by their row nonzero count, so the
// partitioner balances nonzeros instead of rows — the alternative METIS
// balance criterion the paper describes in §3.3 but does not adopt. It
// keeps ComputeTimedCtx's cancellation contract: the context's done
// channel reaches the partitioner's coarsening, initial-bisection and
// refinement loops, and a cancelled call returns the context's error,
// never a partial permutation. An Obs carried by the context
// (obs.NewContext) receives the partitioner's phase timings, and
// opts.Workers bounds the partitioner's goroutines, as on the production
// GP path. It lives beside its benchmark, not in production.
func graphPartitionOrderWeighted(ctx context.Context, a *sparse.CSR, opts Options) (sparse.Perm, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	g, err := graph.FromMatrixSymmetrizedWorkers(a, opts.Workers)
	if err != nil {
		return nil, err
	}
	g.VWgt = make([]int32, a.Rows)
	for i := 0; i < a.Rows; i++ {
		g.VWgt[i] = int32(a.RowNNZ(i))
	}
	part, _, err := partition.KWay(g, opts.Parts, partition.Options{
		Seed:    opts.Seed,
		Workers: opts.Workers,
		Cancel:  ctx.Done(),
		Obs:     obs.FromContext(ctx),
	})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return orderByPart(part), nil
}

// BenchmarkAblationGPWeighted compares the paper's row-balanced GP against
// nnz-weighted balancing on a matrix with skewed row densities, reporting
// the model speedup of each on Milan B.
func BenchmarkAblationGPWeighted(b *testing.B) {
	machine.CacheScale = machine.CacheScaleFor(gen.ScaleTest.Factor())
	a := gen.WithDenseRows(gen.Scramble(gen.Grid2D(100, 100), 2), 10, 0.1, 3)
	milan, _ := machine.ByName("Milan B")
	base := machine.EstimateSpMV(a, milan, machine.Kernel1D)
	b.Run("rows", func(b *testing.B) {
		var sp float64
		for i := 0; i < b.N; i++ {
			bm, _, err := Apply(GP, a, Options{Seed: 1, Parts: milan.Cores})
			if err != nil {
				b.Fatal(err)
			}
			sp = machine.EstimateSpMV(bm, milan, machine.Kernel1D).Gflops / base.Gflops
		}
		b.ReportMetric(sp, "model-speedup")
	})
	b.Run("nnz", func(b *testing.B) {
		var sp float64
		for i := 0; i < b.N; i++ {
			p, err := graphPartitionOrderWeighted(context.Background(), a, Options{Seed: 1, Parts: milan.Cores})
			if err != nil {
				b.Fatal(err)
			}
			bm, err := sparse.PermuteSymmetricWorkers(a, p, 1)
			if err != nil {
				b.Fatal(err)
			}
			sp = machine.EstimateSpMV(bm, milan, machine.Kernel1D).Gflops / base.Gflops
		}
		b.ReportMetric(sp, "model-speedup")
	})
}

// BenchmarkAblationRCMStart compares pseudo-peripheral and minimum-degree
// root selection, reporting the resulting bandwidth.
func BenchmarkAblationRCMStart(b *testing.B) {
	a := gen.Scramble(gen.Grid2D(100, 100), 5)
	g, err := graph.FromMatrixSymmetrizedWorkers(a, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		strat startStrategy
	}{
		{"pseudo-peripheral", pseudoPeripheralStart},
		{"min-degree", minDegreeStart},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var bw int
			for i := 0; i < b.N; i++ {
				p := reverseCuthillMcKee(g, tc.strat, 1, nil)
				bm, err := sparse.PermuteSymmetricWorkers(a, p, 1)
				if err != nil {
					b.Fatal(err)
				}
				bw = bandwidth(bm)
			}
			b.ReportMetric(float64(bw), "bandwidth")
		})
	}
}
