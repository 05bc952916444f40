package reorder

import (
	"context"
	"testing"

	"sparseorder/internal/gen"
	"sparseorder/internal/machine"
)

// BenchmarkReorderScaleTest measures the three multilevel orderings over
// the whole ScaleTest collection (collection and reorder seed 42) at one
// worker, with allocations reported: GP as the study computes it (one
// ComputeGPTimedCtx call for the distinct core counts of Table 2), ND,
// and HP at its default 128 parts. One op is one pass over the 28
// matrices.
func BenchmarkReorderScaleTest(b *testing.B) {
	coll := gen.Collection(gen.ScaleTest, 42)
	var parts []int
	seen := map[int]bool{}
	for _, mc := range machine.Table2 {
		if !seen[mc.Cores] {
			seen[mc.Cores] = true
			parts = append(parts, mc.Cores)
		}
	}
	opts := Options{Seed: 42, Workers: 1}
	b.Run("GP", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, m := range coll {
				if _, _, err := ComputeGPTimedCtx(context.Background(), m.A, parts, opts); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	for _, alg := range []Algorithm{ND, HP} {
		b.Run(string(alg), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, m := range coll {
					if _, err := Compute(alg, m.A, opts); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
