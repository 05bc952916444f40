package partition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sparseorder/internal/gen"
	"sparseorder/internal/graph"
)

func gridGraph(t *testing.T, nx, ny int) *graph.Graph {
	t.Helper()
	g, err := graph.FromMatrixSymmetrizedWorkers(gen.Grid2D(nx, ny), 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// twoCliquesBridge builds two k-cliques joined by a single edge; the optimal
// bisection cuts exactly that edge.
func twoCliquesBridge(t *testing.T, k int) *graph.Graph {
	t.Helper()
	n := 2 * k
	g := &graph.Graph{N: n, Ptr: make([]int, n+1)}
	var adj []int32
	for v := 0; v < n; v++ {
		base, lim := 0, k
		if v >= k {
			base, lim = k, 2*k
		}
		for u := base; u < lim; u++ {
			if u != v {
				adj = append(adj, int32(u))
			}
		}
		if v == k-1 {
			adj = append(adj, int32(k))
		}
		if v == k {
			adj = append(adj, int32(k-1))
		}
		g.Ptr[v+1] = len(adj)
	}
	g.Adj = adj
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

// partWeights returns the total vertex weight of each of the k parts.
func partWeights(g *graph.Graph, part []int32, k int) []int {
	w := make([]int, k)
	for v := 0; v < g.N; v++ {
		w[part[v]] += g.VertexWeight(v)
	}
	return w
}

// imbalanceFactor returns the largest part weight divided by the average
// part weight.
func imbalanceFactor(g *graph.Graph, part []int32, k int) float64 {
	w := partWeights(g, part, k)
	total, maxw := 0, 0
	for _, x := range w {
		total += x
		maxw = max(maxw, x)
	}
	if total == 0 {
		return 1
	}
	return float64(maxw) * float64(k) / float64(total)
}

func TestBisectTwoCliques(t *testing.T) {
	g := twoCliquesBridge(t, 12)
	rng := rand.New(rand.NewSource(1))
	side := Bisect(g, 0.5, Options{Seed: 1}, rng)
	part := make([]int32, g.N)
	for v, s := range side {
		part[v] = int32(s)
	}
	if cut := EdgeCut(g, part); cut != 1 {
		t.Errorf("cut = %d, want 1 (the bridge)", cut)
	}
	w := partWeights(g, part, 2)
	if w[0] != 12 || w[1] != 12 {
		t.Errorf("part weights = %v, want [12 12]", w)
	}
}

func TestKWayGridBalanceAndCut(t *testing.T) {
	g := gridGraph(t, 24, 24)
	for _, k := range []int{2, 4, 8, 16} {
		part, err := KWay(g, k, Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		cut := EdgeCut(g, part)
		w := partWeights(g, part, k)
		avg := float64(g.N) / float64(k)
		for p, x := range w {
			if x == 0 {
				t.Errorf("k=%d: part %d empty", k, p)
			}
			if float64(x) > 1.35*avg {
				t.Errorf("k=%d: part %d weight %d exceeds 1.35x average %.1f", k, p, x, avg)
			}
		}
		// A 24x24 grid cut into k strips needs about 24(k-1) edges at worst;
		// multilevel with FM should stay within a small factor of the ideal.
		if cut > 24*k*3 {
			t.Errorf("k=%d: cut %d implausibly large", k, cut)
		}
	}
}

func TestKWayPartIDsInRange(t *testing.T) {
	g, err0 := graph.FromMatrixSymmetrizedWorkers(gen.Grid2D(10, 10), 1)
	if err0 != nil {
		t.Fatal(err0)
	}
	f := func(seed int64, kRaw uint8) bool {
		k := int(kRaw%7) + 1
		part, err := KWay(g, k, Options{Seed: seed})
		if err != nil {
			return false
		}
		for _, p := range part {
			if p < 0 || int(p) >= k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestKWayK1(t *testing.T) {
	g := gridGraph(t, 5, 5)
	part, err := KWay(g, 1, Options{})
	if err != nil {
		t.Fatalf("k=1: %v", err)
	}
	for _, p := range part {
		if p != 0 {
			t.Fatal("k=1 must assign everything to part 0")
		}
	}
	if _, err := KWay(g, 0, Options{}); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestEdgeCutBruteForce(t *testing.T) {
	g := gridGraph(t, 6, 6)
	rng := rand.New(rand.NewSource(3))
	part := make([]int32, g.N)
	for i := range part {
		part[i] = int32(rng.Intn(3))
	}
	want := 0
	for u := 0; u < g.N; u++ {
		for k := g.Ptr[u]; k < g.Ptr[u+1]; k++ {
			v := int(g.Adj[k])
			if u < v && part[u] != part[v] {
				want++
			}
		}
	}
	if got := EdgeCut(g, part); got != want {
		t.Errorf("EdgeCut = %d, want %d", got, want)
	}
}

func TestImbalanceFactor(t *testing.T) {
	g := gridGraph(t, 4, 4)
	part := make([]int32, 16)
	for i := 8; i < 16; i++ {
		part[i] = 1
	}
	if f := imbalanceFactor(g, part, 2); f != 1 {
		t.Errorf("balanced split factor = %v, want 1", f)
	}
	for i := range part {
		part[i] = 0
	}
	part[15] = 1
	if f := imbalanceFactor(g, part, 2); f < 1.8 {
		t.Errorf("skewed split factor = %v, want ~1.875", f)
	}
}

func TestVertexSeparatorSeparates(t *testing.T) {
	g := gridGraph(t, 16, 16)
	rng := rand.New(rand.NewSource(4))
	label := VertexSeparator(g, Options{Seed: 4}, rng)
	n0, n1, nSep := 0, 0, 0
	for _, l := range label {
		switch l {
		case 0:
			n0++
		case 1:
			n1++
		default:
			nSep++
		}
	}
	if n0 == 0 || n1 == 0 {
		t.Fatalf("degenerate separator: %d/%d/%d", n0, n1, nSep)
	}
	if nSep > g.N/4 {
		t.Errorf("separator too large: %d of %d", nSep, g.N)
	}
	// No edge may connect side 0 with side 1.
	for u := 0; u < g.N; u++ {
		if label[u] == 2 {
			continue
		}
		for k := g.Ptr[u]; k < g.Ptr[u+1]; k++ {
			v := g.Adj[k]
			if label[v] != 2 && label[v] != label[u] {
				t.Fatalf("edge %d-%d crosses the separator", u, v)
			}
		}
	}
}

func TestVertexSeparatorTiny(t *testing.T) {
	g := &graph.Graph{N: 1, Ptr: []int{0, 0}}
	rng := rand.New(rand.NewSource(5))
	label := VertexSeparator(g, Options{}, rng)
	if len(label) != 1 {
		t.Fatalf("labels = %v", label)
	}
	if VertexSeparator(&graph.Graph{N: 0, Ptr: []int{0}}, Options{}, rng) != nil {
		t.Error("empty graph should give nil labels")
	}
}

func TestBisectWeightedVertices(t *testing.T) {
	// Heavy vertices on one end: balance must account for weights.
	g := gridGraph(t, 10, 10)
	g.VWgt = make([]int32, g.N)
	for i := range g.VWgt {
		g.VWgt[i] = 1
	}
	for i := 0; i < 10; i++ {
		g.VWgt[i] = 10
	}
	rng := rand.New(rand.NewSource(6))
	side := Bisect(g, 0.5, Options{Seed: 6}, rng)
	w := [2]int{}
	for v, s := range side {
		w[s] += g.VertexWeight(v)
	}
	total := w[0] + w[1]
	if w[0] < total/4 || w[1] < total/4 {
		t.Errorf("weighted bisection too skewed: %v", w)
	}
}

func TestCoarsenPreservesTotalWeight(t *testing.T) {
	g := gridGraph(t, 12, 12)
	rng := rand.New(rand.NewSource(7))
	levels := coarsen(g, 16, Options{}, rng)
	if len(levels) == 0 {
		t.Fatal("no coarsening happened on a 144-vertex grid")
	}
	for _, lv := range levels {
		if lv.coarse.TotalVertexWeight() != lv.fine.TotalVertexWeight() {
			t.Fatalf("coarsening changed total vertex weight: %d -> %d",
				lv.fine.TotalVertexWeight(), lv.coarse.TotalVertexWeight())
		}
		if err := lv.coarse.Validate(); err != nil {
			t.Fatalf("coarse graph invalid: %v", err)
		}
		for v := 0; v < lv.fine.N; v++ {
			c := lv.cmap[v]
			if c < 0 || int(c) >= lv.coarse.N {
				t.Fatalf("cmap out of range")
			}
		}
	}
}

func TestHeavyEdgeMatchIsMatching(t *testing.T) {
	g := gridGraph(t, 9, 9)
	rng := rand.New(rand.NewSource(8))
	match, nCoarse := matchVertices(g, rng, heavyEdgeMatching)
	pairs := 0
	for v := 0; v < g.N; v++ {
		m := int(match[v])
		if m < 0 || m >= g.N {
			t.Fatalf("match[%d] = %d out of range", v, m)
		}
		if int(match[m]) != v {
			t.Fatalf("matching not symmetric at %d", v)
		}
		if m != v {
			pairs++
		}
	}
	if nCoarse != g.N-pairs/2 {
		t.Errorf("nCoarse = %d, want %d", nCoarse, g.N-pairs/2)
	}
}

func TestParallelBisectionMatchesSerial(t *testing.T) {
	g := gridGraph(t, 90, 90) // above the 4096-vertex parallel threshold
	serial, err := KWay(g, 8, Options{Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 4, 7} {
		par, err := KWay(g, 8, Options{Seed: 5, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for v := range serial {
			if serial[v] != par[v] {
				t.Fatalf("workers=%d partition diverges from serial at vertex %d", workers, v)
			}
		}
	}
}

func TestRandomMatchingStillPartitions(t *testing.T) {
	g := gridGraph(t, 20, 20)
	part, err := KWay(g, 4, Options{Seed: 6, matching: randomMatching})
	if err != nil {
		t.Fatal(err)
	}
	if cut := EdgeCut(g, part); cut <= 0 {
		t.Fatalf("random-matching cut %d, want a positive cut", cut)
	}
	w := partWeights(g, part, 4)
	for p, x := range w {
		if x == 0 {
			t.Errorf("part %d empty", p)
		}
	}
}

func TestRandomMatchIsMatching(t *testing.T) {
	g := gridGraph(t, 9, 9)
	rng := rand.New(rand.NewSource(9))
	match, _ := matchVertices(g, rng, randomMatching)
	for v := 0; v < g.N; v++ {
		if int(match[match[v]]) != v {
			t.Fatalf("random matching not symmetric at %d", v)
		}
	}
}

// TestKWayMultiMatchesKWay checks that partitioning for several part
// counts at once, sharing the bisections they have in common, returns for
// each part count exactly what KWay returns for it alone, at every worker
// count (the grid is above the 4096-vertex fork threshold).
func TestKWayMultiMatchesKWay(t *testing.T) {
	g := gridGraph(t, 90, 90)
	ks := []int{32, 72, 64, 16, 48, 128, 1, 3, 64}
	opts := Options{Seed: 6}
	for _, workers := range []int{1, 2, 0} {
		opts.Workers = workers
		parts, err := KWayMulti(g, ks, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range ks {
			want, err := KWay(g, k, Options{Seed: 6, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for v := range want {
				if parts[i][v] != want[v] {
					t.Fatalf("workers=%d k=%d: part of vertex %d is %d, KWay alone gives %d",
						workers, k, v, parts[i][v], want[v])
				}
			}
		}
	}
	if _, err := KWayMulti(g, []int{4, 0}, opts); err == nil {
		t.Fatal("KWayMulti accepted k = 0")
	}
}
