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

func TestBFSLevelsOnPath(t *testing.T) {
	g := pathGraph(t, 6)
	r := BFS(g, 0, nil, nil)
	if r.Depth() != 5 {
		t.Fatalf("depth = %d, want 5", r.Depth())
	}
	for i := 0; i < 6; i++ {
		if int(r.Level[i]) != i {
			t.Errorf("level[%d] = %d, want %d", i, r.Level[i], i)
		}
	}
	r = BFS(g, 3, nil, nil)
	if r.Depth() != 3 {
		t.Errorf("depth from middle = %d, want 3", r.Depth())
	}
	if len(r.Order) != 6 {
		t.Errorf("visited %d of 6", len(r.Order))
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
	r := BFS(g, 0, nil, nil)
	if len(r.Order) != 2 {
		t.Errorf("BFS escaped the component: %v", r.Order)
	}
	if r.Level[2] != -1 {
		t.Errorf("unreached vertex has level %d", r.Level[2])
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
	v := PseudoPeripheral(g, 4, nil, nil)
	if v != 0 && v != 8 {
		t.Errorf("pseudo-peripheral vertex = %d, want an endpoint", v)
	}
	if d := BFS(g, v, nil, nil).Depth(); d != 8 {
		t.Errorf("eccentricity = %d, want 8", d)
	}
}

// TestPseudoPeripheralScratch checks that a scratch level array, dirty
// from earlier use, changes nothing: on the path 0–1–2–3–4 started from 2,
// and on a grid from several starts, the vertex is the one found without
// scratch, and a BFS from it is as deep as its eccentricity, the largest
// distance from it to any vertex.
func TestPseudoPeripheralScratch(t *testing.T) {
	grid := sparse.NewCOO(30, 30, 0)
	for r := 0; r < 5; r++ {
		for c := 0; c < 6; c++ {
			v := r*6 + c
			if c+1 < 6 {
				grid.Append(v, v+1, 1)
			}
			if r+1 < 5 {
				grid.Append(v, v+6, 1)
			}
		}
	}
	ga, _ := grid.ToCSR()
	gg, err := FromMatrixSymmetrizedWorkers(ga, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*Graph{pathGraph(t, 5), gg} {
		scratch := make([]int32, g.N)
		for i := range scratch {
			scratch[i] = int32(i % 3)
		}
		for start := 0; start < g.N; start += 2 {
			want := PseudoPeripheral(g, start, nil, nil)
			got := PseudoPeripheral(g, start, scratch, nil)
			if got != want {
				t.Fatalf("n=%d start %d: vertex %d with scratch, %d without", g.N, start, got, want)
			}
			r := BFS(g, got, nil, nil)
			ecc := int32(0)
			for _, l := range r.Level {
				ecc = max(ecc, l)
			}
			if r.Depth() != int(ecc) {
				t.Errorf("n=%d start %d: depth %d, eccentricity %d", g.N, start, r.Depth(), ecc)
			}
		}
	}
	if v := PseudoPeripheral(pathGraph(t, 5), 2, make([]int32, 5), nil); v != 0 && v != 4 {
		t.Errorf("path from 2: vertex %d, want an endpoint", v)
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
