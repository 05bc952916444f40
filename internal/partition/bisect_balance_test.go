package partition

import (
	"math/rand"
	"testing"

	"sparseorder/internal/graph"
)

// starGraph builds a hub of weight hubW with n unit-weight leaves.
func starGraph(hubW, n int) *graph.Graph {
	g := &graph.Graph{N: n + 1}
	g.Ptr = make([]int, g.N+1)
	g.Ptr[1] = n
	for i := 1; i <= n; i++ {
		g.Ptr[i+1] = n + i
	}
	for i := 0; i < n; i++ {
		g.Adj = append(g.Adj, int32(i+1))
	}
	for i := 0; i < n; i++ {
		g.Adj = append(g.Adj, 0)
	}
	g.VWgt = make([]int32, g.N)
	g.VWgt[0] = int32(hubW)
	for i := 1; i <= n; i++ {
		g.VWgt[i] = 1
	}
	return g
}

// TestInitialBisectionPrefersBalanced is the regression test for the
// balance bug: on a star whose hub weighs as much as all six leaves, a BFS
// trial growing from a leaf used to grab the hub too (7/12 of the weight,
// beyond the 3% tolerance) and win on its lower cut of 5; FM cannot repair
// an overweight side, so the unbalanced bisection escaped. The fixed
// growth stays inside the balance envelope and the selection prefers
// balanced trials, so side 0 must now hold exactly half the weight —
// either the hub alone or the six leaves (cut 6).
func TestInitialBisectionPrefersBalanced(t *testing.T) {
	g := starGraph(6, 6) // total weight 12, target 6, max side 6 at ε=0.03
	for seed := int64(0); seed < 8; seed++ {
		side := initialBisection(g, 0.5, Options{}, rand.New(rand.NewSource(seed)))
		w := 0
		for v, s := range side {
			if s == 0 {
				w += int(g.VWgt[v])
			}
		}
		if w != 6 {
			t.Fatalf("seed %d: side-0 weight %d, want the balanced 6", seed, w)
		}
	}
}

// TestInitialBisectionUnbalancedFallback pins the other half of the
// contract: when no balanced trial exists (a weight-10 vertex between two
// unit vertices cannot be split within 3%), the lowest-cut unbalanced
// attempt must survive as the fallback rather than an arbitrary trial.
func TestInitialBisectionUnbalancedFallback(t *testing.T) {
	g := &graph.Graph{
		N:    3,
		Ptr:  []int{0, 1, 3, 4},
		Adj:  []int32{1, 0, 2, 1},
		VWgt: []int32{1, 10, 1},
	}
	side := initialBisection(g, 0.5, Options{}, rand.New(rand.NewSource(1)))
	if side[0] != 0 || side[2] != 0 || side[1] != 1 {
		t.Fatalf("fallback bisection = %v, want the light vertices on side 0", side)
	}
}
