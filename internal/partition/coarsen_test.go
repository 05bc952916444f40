package partition

import (
	"math/rand"
	"testing"

	"sparseorder/internal/gen"
	"sparseorder/internal/graph"
)

// TestCoarsenStopsWhenMatchingStalls holds coarsening to METIS's stopping
// rule on power-law graphs, where heavy-edge matching stalls once the hubs'
// leaves have no unmatched neighbour left: every level kept must shrink to
// at most coarsenFraction of the level above it. Levels that shrink by only
// 5–15% cost FM passes worth several times the rest of the bisection and
// leave a higher cut. The cut bounds are the 2-way GP cuts (seed 42) frozen
// when the fraction became 0.85; a rule change that raises any fails here.
func TestCoarsenStopsWhenMatchingStalls(t *testing.T) {
	cases := []struct {
		scale  int
		seed   int64
		maxCut int
	}{
		{12, 7, 1104},
		{13, 9, 1699},
		{12, 11, 1190},
	}
	for _, c := range cases {
		g, err := graph.FromMatrixSymmetrizedWorkers(gen.RMAT(c.scale, 6, c.seed), 1)
		if err != nil {
			t.Fatal(err)
		}
		// The bisection's own RNG stream: KWayMulti seeds the root
		// bisection with Options.Seed.
		levels := coarsen(g, coarsenTo, Options{}, rand.New(rand.NewSource(42)), new(Scratch))
		if len(levels) == 0 {
			t.Errorf("rmat%d-%d: no level kept", c.scale, c.seed)
		}
		for i, lv := range levels {
			if float64(lv.coarse.N) > coarsenFraction*float64(lv.fine.N) {
				t.Errorf("rmat%d-%d: level %d shrinks %d -> %d vertices, more than %.2f×",
					c.scale, c.seed, i, lv.fine.N, lv.coarse.N, coarsenFraction)
			}
		}
		part, err := kway(g, 2, Options{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if cut := EdgeCut(g, part); cut > c.maxCut {
			t.Errorf("rmat%d-%d: 2-way cut %d, want at most %d", c.scale, c.seed, cut, c.maxCut)
		}
	}
}
