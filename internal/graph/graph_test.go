package graph

import (
	"math/rand"
	"slices"
	"testing"

	"sparseorder/internal/sparse"
)

// pathMatrix returns the tridiagonal pattern of a path with n vertices.
func pathMatrix(n int) *sparse.CSR {
	coo := sparse.NewCOO(n, n, 3*n)
	for i := 0; i < n; i++ {
		coo.Append(i, i, 2)
		if i > 0 {
			coo.Append(i, i-1, -1)
		}
		if i < n-1 {
			coo.Append(i, i+1, -1)
		}
	}
	a, err := coo.ToCSR()
	if err != nil {
		panic(err)
	}
	return a
}

func pathGraph(t *testing.T, n int) *Graph {
	t.Helper()
	g, err := FromMatrixSymmetrizedWorkers(pathMatrix(n), 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFromMatrixPath(t *testing.T) {
	g := pathGraph(t, 5)
	if g.N != 5 || len(g.Adj)/2 != 4 {
		t.Fatalf("N=%d edges=%d, want 5 and 4", g.N, len(g.Adj)/2)
	}
	if g.Degree(0) != 1 || g.Degree(2) != 2 {
		t.Errorf("degrees: %d %d", g.Degree(0), g.Degree(2))
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestFromMatrixDropsDiagonal(t *testing.T) {
	coo := sparse.NewCOO(2, 2, 3)
	coo.Append(0, 0, 5)
	coo.Append(0, 1, 1)
	coo.Append(1, 0, 1)
	a, _ := coo.ToCSR()
	g, err := FromMatrixSymmetrizedWorkers(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Adj)/2 != 1 {
		t.Errorf("edges = %d, want 1 (self-loop dropped)", len(g.Adj)/2)
	}
}

func TestFromMatrixRejectsRectangular(t *testing.T) {
	coo := sparse.NewCOO(2, 3, 1)
	coo.Append(0, 2, 1)
	a, _ := coo.ToCSR()
	if _, err := FromMatrixSymmetrizedWorkers(a, 1); err == nil {
		t.Error("accepted rectangular matrix")
	}
}

func TestFromMatrixSymmetrized(t *testing.T) {
	coo := sparse.NewCOO(3, 3, 2)
	coo.Append(0, 2, 1) // only upper entry; symmetrization must add mirror
	coo.Append(1, 1, 1)
	a, _ := coo.ToCSR()
	g, err := FromMatrixSymmetrizedWorkers(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Adj)/2 != 1 || g.Degree(0) != 1 || g.Degree(2) != 1 {
		t.Errorf("edges=%d deg0=%d deg2=%d", len(g.Adj)/2, g.Degree(0), g.Degree(2))
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

// levelsFrom runs bfsFill from root over a fresh level array, returning
// the levels and the visit order.
func levelsFrom(g *Graph, root int) (level, order []int32) {
	level = make([]int32, g.N)
	for i := range level {
		level[i] = -1
	}
	return level, bfsFill(g, root, level, nil, nil)
}

func TestBFSLevelsOnPath(t *testing.T) {
	g := pathGraph(t, 6)
	level, order := levelsFrom(g, 0)
	if d := level[order[len(order)-1]]; d != 5 {
		t.Fatalf("depth = %d, want 5", d)
	}
	for i := 0; i < 6; i++ {
		if int(level[i]) != i {
			t.Errorf("level[%d] = %d, want %d", i, level[i], i)
		}
	}
	level, order = levelsFrom(g, 3)
	if d := level[order[len(order)-1]]; d != 3 {
		t.Errorf("depth from middle = %d, want 3", d)
	}
	if len(order) != 6 {
		t.Errorf("visited %d of 6", len(order))
	}
}

func TestBFSRestrictedToComponent(t *testing.T) {
	// Two disjoint edges: 0-1 and 2-3.
	coo := sparse.NewCOO(4, 4, 4)
	coo.Append(0, 1, 1)
	coo.Append(1, 0, 1)
	coo.Append(2, 3, 1)
	coo.Append(3, 2, 1)
	a, _ := coo.ToCSR()
	g, _ := FromMatrixSymmetrizedWorkers(a, 1)
	level, order := levelsFrom(g, 0)
	if len(order) != 2 {
		t.Errorf("BFS escaped the component: %v", order)
	}
	if level[2] != -1 {
		t.Errorf("unreached vertex has level %d", level[2])
	}
}

func TestComponents(t *testing.T) {
	coo := sparse.NewCOO(5, 5, 4)
	coo.Append(0, 1, 1)
	coo.Append(1, 0, 1)
	coo.Append(2, 3, 1)
	coo.Append(3, 2, 1)
	a, _ := coo.ToCSR()
	g, _ := FromMatrixSymmetrizedWorkers(a, 1)
	comps, id := Components(g)
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3", len(comps))
	}
	if id[0] != id[1] || id[2] != id[3] || id[0] == id[2] || id[4] == id[0] {
		t.Errorf("component ids: %v", id)
	}
}

func TestPseudoPeripheralOnPath(t *testing.T) {
	g := pathGraph(t, 9)
	v := PseudoPeripheral(g, 4, nil, nil, nil)
	if v != 0 && v != 8 {
		t.Errorf("pseudo-peripheral vertex = %d, want an endpoint", v)
	}
	if level, order := levelsFrom(g, v); level[order[len(order)-1]] != 8 {
		t.Errorf("eccentricity = %d, want 8", level[order[len(order)-1]])
	}
}

// TestPseudoPeripheralScratch checks the caller-buffer contract: with one
// level array and one order buffer reused across calls, the vertex is the
// one found with fresh buffers, a BFS from it is as deep as its
// eccentricity (the largest distance from it to any vertex), and the
// level array reads -1 again after every call. Outside start's component
// the array may hold anything, and the search leaves it as it was. The
// graphs are the path 0–1–2–3–4, a 5×6 grid, and the two side by side.
func TestPseudoPeripheralScratch(t *testing.T) {
	grid := sparse.NewCOO(30, 30, 0)
	both := sparse.NewCOO(35, 35, 0)
	for r := 0; r < 5; r++ {
		for c := 0; c < 6; c++ {
			v := r*6 + c
			if c+1 < 6 {
				grid.Append(v, v+1, 1)
				both.Append(v, v+1, 1)
			}
			if r+1 < 5 {
				grid.Append(v, v+6, 1)
				both.Append(v, v+6, 1)
			}
		}
	}
	for v := 30; v < 34; v++ {
		both.Append(v, v+1, 1)
	}
	var graphs []*Graph
	graphs = append(graphs, pathGraph(t, 5))
	for _, coo := range []*sparse.COO{grid, both} {
		a, _ := coo.ToCSR()
		g, err := FromMatrixSymmetrizedWorkers(a, 1)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	for _, g := range graphs {
		_, id := Components(g)
		level := make([]int32, g.N)
		order := make([]int32, 0, g.N)
		for start := 0; start < g.N; start++ {
			// Vertices outside start's component carry junk.
			for v := range level {
				level[v] = -1
				if id[v] != id[start] {
					level[v] = int32(7 + v)
				}
			}
			want := PseudoPeripheral(g, start, nil, nil, nil)
			got := PseudoPeripheral(g, start, level, order, nil)
			if got != want {
				t.Fatalf("n=%d start %d: vertex %d with buffers, %d without", g.N, start, got, want)
			}
			for v, l := range level {
				if id[v] == id[start] && l != -1 || id[v] != id[start] && l != int32(7+v) {
					t.Fatalf("n=%d start %d: level[%d] = %d on return", g.N, start, v, l)
				}
			}
			lv, ord := levelsFrom(g, got)
			ecc := int32(0)
			for _, l := range lv {
				ecc = max(ecc, l)
			}
			if lv[ord[len(ord)-1]] != ecc {
				t.Errorf("n=%d start %d: depth %d, eccentricity %d", g.N, start, lv[ord[len(ord)-1]], ecc)
			}
		}
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := pathGraph(t, 6)
	local := make([]int32, g.N)
	sub := InducedSubgraph(g, []int32{1, 2, 3, 5}, local)
	if sub.N != 4 {
		t.Fatalf("sub.N = %d", sub.N)
	}
	// Edges kept: 1-2, 2-3. Vertex 5 is isolated (4 excluded).
	if len(sub.Adj)/2 != 2 {
		t.Errorf("sub edges = %d, want 2", len(sub.Adj)/2)
	}
	if sub.Degree(3) != 0 {
		t.Errorf("vertex 5 should be isolated, degree %d", sub.Degree(3))
	}
	for v, l := range local {
		if l != 0 {
			t.Errorf("local[%d] = %d after the call, want 0", v, l)
		}
	}
	if fresh := InducedSubgraph(g, []int32{1, 2, 3, 5}, nil); !slices.Equal(fresh.Adj, sub.Adj) || !slices.Equal(fresh.Ptr, sub.Ptr) {
		t.Errorf("subgraph with local scratch differs from one without")
	}
	if err := sub.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestInducedSubgraphCarriesWeights(t *testing.T) {
	g := pathGraph(t, 4)
	g.VWgt = []int32{1, 2, 3, 4}
	g.EWgt = make([]int32, len(g.Adj))
	for i := range g.EWgt {
		g.EWgt[i] = 7
	}
	sub := InducedSubgraph(g, []int32{1, 2}, nil)
	if sub.VWgt[0] != 2 || sub.VWgt[1] != 3 {
		t.Errorf("vertex weights not carried: %v", sub.VWgt)
	}
	if len(sub.EWgt) != len(sub.Adj) || sub.EWgt[0] != 7 {
		t.Errorf("edge weights not carried")
	}
}

func TestTotalVertexWeight(t *testing.T) {
	g := pathGraph(t, 4)
	if g.TotalVertexWeight() != 4 {
		t.Errorf("unit weight total = %d", g.TotalVertexWeight())
	}
	g.VWgt = []int32{2, 2, 2, 2}
	if g.TotalVertexWeight() != 8 {
		t.Errorf("weighted total = %d", g.TotalVertexWeight())
	}
}

func TestMaxDegree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	coo := sparse.NewCOO(30, 30, 200)
	for k := 0; k < 100; k++ {
		i, j := rng.Intn(30), rng.Intn(30)
		if i == j {
			continue
		}
		coo.Append(i, j, 1)
		coo.Append(j, i, 1)
	}
	a, _ := coo.ToCSR()
	g, _ := FromMatrixSymmetrizedWorkers(a, 1)
	want := 0
	for v := 0; v < g.N; v++ {
		if d := g.Degree(v); d > want {
			want = d
		}
	}
	if g.MaxDegree() != want {
		t.Errorf("MaxDegree = %d, want %d", g.MaxDegree(), want)
	}
}
