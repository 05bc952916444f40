package reorder

import (
	"math"
	"math/rand"
	"testing"

	"sparseorder/internal/cholesky"
	"sparseorder/internal/gen"
	"sparseorder/internal/graph"
	"sparseorder/internal/sparse"
)

// labelledGraph builds the symmetric pattern (unit diagonal included) of
// an undirected edge list after renaming vertex v to label[v], so that no
// property of the result can follow from the order in which the test
// happened to number the vertices.
func labelledGraph(t *testing.T, n int, edges [][2]int, label []int) (*graph.Graph, *sparse.CSR) {
	t.Helper()
	coo := sparse.NewCOO(n, n, n+2*len(edges))
	for v := 0; v < n; v++ {
		coo.Append(v, v, 1)
	}
	for _, e := range edges {
		coo.Append(label[e[0]], label[e[1]], 1)
		coo.Append(label[e[1]], label[e[0]], 1)
	}
	a, err := coo.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromMatrixSymmetrizedWorkers(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g, a
}

// cliqueEdges appends the edges of the clique on vs.
func cliqueEdges(edges [][2]int, vs []int) [][2]int {
	for i := range vs {
		for j := i + 1; j < len(vs); j++ {
			edges = append(edges, [2]int{vs[i], vs[j]})
		}
	}
	return edges
}

func span(lo, hi int) []int {
	var vs []int
	for v := lo; v < hi; v++ {
		vs = append(vs, v)
	}
	return vs
}

// TestAMDSupervariablesEmitConsecutively checks supervariable detection
// and mass elimination on graphs with known indistinguishable vertices.
// Each merged group must be emitted as one consecutive run whatever the
// vertex numbering:
//   - the two hubs of K₂,ₘ become indistinguishable once a leaf is
//     eliminated;
//   - in cliques glued along shared separators, each separator becomes one
//     supervariable once the interior next to it goes, and that interior
//     is mass-eliminated with its first pivot.
//
// On the glued cliques the fill must equal exact minimum degree's. On
// K₂,ₘ it may exceed it by one entry: with two leaves left, the hub
// supervariable's external degree ties the leaves' at 2 (its true degree
// is 3), and AMD, like every external-degree method, may then eliminate
// the hubs first.
func TestAMDSupervariablesEmitConsecutively(t *testing.T) {
	const m = 12
	var k2m [][2]int
	for leaf := 2; leaf < 2+m; leaf++ {
		k2m = append(k2m, [2]int{0, leaf}, [2]int{1, leaf})
	}
	// Cliques {0..8} and {6..13}, glued along the separator {6, 7, 8}.
	glued := cliqueEdges(cliqueEdges(nil, span(0, 9)), span(6, 14))
	// Cliques {0..6}, {5..12} and {11..15}: separators {5, 6} and {11, 12}.
	chain := cliqueEdges(cliqueEdges(cliqueEdges(nil, span(0, 7)), span(5, 13)), span(11, 16))
	cases := []struct {
		name      string
		n         int
		edges     [][2]int
		groups    [][]int
		extraFill int64
	}{
		{"K2,m", 2 + m, k2m, [][]int{{0, 1}}, 1},
		{"glued cliques", 14, glued, [][]int{span(6, 9), span(0, 6), span(9, 14)}, 0},
		{"clique chain", 16, chain, [][]int{span(5, 7), span(11, 13), span(0, 5), span(13, 16)}, 0},
	}
	for _, tc := range cases {
		for seed := int64(0); seed < 4; seed++ {
			label := rand.New(rand.NewSource(seed)).Perm(tc.n)
			g, a := labelledGraph(t, tc.n, tc.edges, label)
			p := approxMinimumDegree(g, nil)
			if err := p.Validate(); err != nil || len(p) != tc.n {
				t.Fatalf("%s seed %d: invalid permutation %v: %v", tc.name, seed, p, err)
			}
			pos := make([]int, tc.n)
			for k, v := range p {
				pos[v] = k
			}
			for _, grp := range tc.groups {
				lo, hi := tc.n, -1
				for _, v := range grp {
					lo, hi = min(lo, pos[label[v]]), max(hi, pos[label[v]])
				}
				if hi-lo != len(grp)-1 {
					t.Errorf("%s seed %d: group %v spans positions %d..%d of %v, want a consecutive run",
						tc.name, seed, grp, lo, hi, p)
				}
			}
			got, exact := factorNNZ(t, a, p), factorNNZ(t, a, minDegreeExact(g))
			if got < exact || got > exact+tc.extraFill {
				t.Errorf("%s seed %d: AMD fill %d, exact minimum degree %d (+%d allowed)",
					tc.name, seed, got, exact, tc.extraFill)
			}
		}
	}
}

func factorNNZ(t *testing.T, a *sparse.CSR, p sparse.Perm) int64 {
	t.Helper()
	b, err := sparse.PermuteSymmetricWorkers(a, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	nnz, err := cholesky.FactorNNZ(b)
	if err != nil {
		t.Fatal(err)
	}
	return nnz
}

// amdBaselineFill is nnz(L)/nnz(A) under the AMD ordering that preceded
// supervariables and mass elimination (the serial core below 4096
// vertices, multiple elimination above), for the SPD matrices of
// gen.Collection(gen.ScaleTest, 42) and for the scrambled 32³ mesh.
var amdBaselineFill = map[string]float64{
	"grid2d":      2.723852,
	"grid3d":      6.876781,
	"band":        0.909432,
	"blockfem":    2.560682,
	"road":        0.903158,
	"mixed3d_a":   5.382295,
	"mixed3d_b":   5.078177,
	"band_wide":   1.496746,
	"road_b":      1.240227,
	"blockfem_b":  1.842500,
	"grid2d_perm": 2.874490,
	"grid3d_perm": 8.492165,
	"band_perm":   0.899423,
	"road_perm":   0.921646,
	"clustered_a": 23.771496,
	"clustered_b": 15.559111,
	"clustered_c": 13.719353,
	"kmer":        16.041377,
}

const amdBaselineMeshFill = 54.24

// TestAMDFillQualityGate holds AMD's Cholesky fill against the frozen
// baseline: the geometric mean over the SPD collection may not get worse,
// no single matrix may get worse by more than 5%, and the scrambled 32³
// mesh may not exceed its baseline fill ratio.
func TestAMDFillQualityGate(t *testing.T) {
	fill := func(a *sparse.CSR) float64 {
		t.Helper()
		b, _, err := Apply(AMD, a, Options{})
		if err != nil {
			t.Fatal(err)
		}
		fr, err := cholesky.FillRatio(b)
		if err != nil {
			t.Fatal(err)
		}
		return fr
	}
	var logRatio float64
	seen := 0
	for _, m := range gen.Collection(gen.ScaleTest, 42) {
		if !m.SPD {
			continue
		}
		base, ok := amdBaselineFill[m.Name]
		if !ok {
			t.Fatalf("no baseline fill for SPD matrix %s", m.Name)
		}
		seen++
		got := fill(m.A)
		if got > 1.05*base {
			t.Errorf("%s: fill ratio %.4f more than 5%% above baseline %.4f", m.Name, got, base)
		}
		logRatio += math.Log(got / base)
	}
	if seen != len(amdBaselineFill) {
		t.Fatalf("collection has %d SPD matrices, baseline covers %d", seen, len(amdBaselineFill))
	}
	if geo := math.Exp(logRatio / float64(seen)); geo > 1 {
		t.Errorf("geometric-mean fill ratio is %.4f× the baseline, want ≤ 1", geo)
	}
	mesh := gen.Scramble(gen.Grid3D(32, 32, 32), 42)
	if got := fill(mesh); got > amdBaselineMeshFill {
		t.Errorf("scrambled 32³ mesh: fill ratio %.2f above baseline %.2f", got, amdBaselineMeshFill)
	}
}

// TestAMDCancelledCoreStopsEarly checks the core's cancellation poll
// without a clock, on a perfect matching: every pivot eliminates its
// partner by mass elimination, so the order only ever has even length.
// A poll keyed to len(order) reaching an odd residue would never fire
// there; the poll counts pivots, so a closed done must stop the core
// before it has ordered the graph.
func TestAMDCancelledCoreStopsEarly(t *testing.T) {
	const pairs = 2048
	edges := make([][2]int, pairs)
	for k := range edges {
		edges[k] = [2]int{2 * k, 2*k + 1}
	}
	g, _ := labelledGraph(t, 2*pairs, edges, span(0, 2*pairs))
	if p := approxMinimumDegree(g, nil); len(p) != g.N || p.Validate() != nil {
		t.Fatalf("uncancelled core: invalid permutation of length %d", len(p))
	}
	done := make(chan struct{})
	close(done)
	if p := approxMinimumDegree(g, done); len(p) >= g.N {
		t.Fatalf("core ordered all %d vertices despite a closed done channel", g.N)
	}
}
