package hypergraph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sparseorder/internal/gen"
	"sparseorder/internal/sparse"
)

func smallMatrix(t *testing.T) *sparse.CSR {
	t.Helper()
	// 4x3:
	// [x . x]
	// [x x .]
	// [. x .]
	// [. . x]
	coo := sparse.NewCOO(4, 3, 6)
	coo.Append(0, 0, 1)
	coo.Append(0, 2, 1)
	coo.Append(1, 0, 1)
	coo.Append(1, 1, 1)
	coo.Append(2, 1, 1)
	coo.Append(3, 2, 1)
	a, err := coo.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestColumnNet(t *testing.T) {
	h := ColumnNet(smallMatrix(t))
	if h.V != 4 || h.Nets != 3 {
		t.Fatalf("V=%d Nets=%d", h.V, h.Nets)
	}
	if err := h.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Net 0 (column 0) pins rows 0 and 1.
	pins := h.Pins(0)
	if len(pins) != 2 || pins[0] != 0 || pins[1] != 1 {
		t.Errorf("net 0 pins = %v", pins)
	}
	// Vertex 0 (row 0) is in nets 0 and 2.
	nets := h.NetsOf(0)
	if len(nets) != 2 || nets[0] != 0 || nets[1] != 2 {
		t.Errorf("vertex 0 nets = %v", nets)
	}
}

func TestCutNet(t *testing.T) {
	h := ColumnNet(smallMatrix(t))
	// Rows {0,1} vs {2,3}: net0 internal, net1 cut (pins 1,2), net2 cut (0,3).
	part := []int32{0, 0, 1, 1}
	if c := CutNet(h, part); c != 2 {
		t.Errorf("CutNet = %d, want 2", c)
	}
	// All together: nothing cut.
	if c := CutNet(h, []int32{0, 0, 0, 0}); c != 0 {
		t.Errorf("CutNet single part = %d, want 0", c)
	}
}

// blockMatrix builds a block-diagonal pattern with `blocks` dense blocks of
// size bs; the ideal k=blocks partition cuts zero nets.
func blockMatrix(t *testing.T, blocks, bs int) *sparse.CSR {
	t.Helper()
	n := blocks * bs
	coo := sparse.NewCOO(n, n, n*bs)
	for b := 0; b < blocks; b++ {
		for i := 0; i < bs; i++ {
			for j := 0; j < bs; j++ {
				coo.Append(b*bs+i, b*bs+j, 1)
			}
		}
	}
	a, err := coo.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestKWayBlockDiagonalZeroCut(t *testing.T) {
	a := blockMatrix(t, 4, 8)
	h := ColumnNet(a)
	part, err := KWay(h, 4, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cut := CutNet(h, part); cut != 0 {
		t.Errorf("block-diagonal cut = %d, want 0", cut)
	}
	// All rows of a block must share a part.
	for b := 0; b < 4; b++ {
		first := part[b*8]
		for i := 1; i < 8; i++ {
			if part[b*8+i] != first {
				t.Errorf("block %d split across parts", b)
			}
		}
	}
}

func TestKWayBalanceOnGrid(t *testing.T) {
	a := gen.Grid2D(20, 20)
	h := ColumnNet(a)
	for _, k := range []int{2, 4, 8} {
		part, err := KWay(h, k, Options{Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		cut := CutNet(h, part)
		counts := make([]int, k)
		for _, p := range part {
			if p < 0 || int(p) >= k {
				t.Fatalf("part id %d out of range", p)
			}
			counts[p]++
		}
		avg := float64(h.V) / float64(k)
		for p, c := range counts {
			if c == 0 {
				t.Errorf("k=%d: part %d empty", k, p)
			}
			if float64(c) > 1.4*avg {
				t.Errorf("k=%d: part %d has %d of %d vertices", k, p, c, h.V)
			}
		}
		if cut <= 0 || cut >= h.Nets {
			t.Errorf("k=%d: cut %d outside (0, %d)", k, cut, h.Nets)
		}
	}
}

func TestKWayK1AndErrors(t *testing.T) {
	h := ColumnNet(smallMatrix(t))
	part, err := KWay(h, 1, Options{})
	if err != nil {
		t.Fatalf("k=1: %v", err)
	}
	for _, p := range part {
		if p != 0 {
			t.Error("k=1 must assign part 0")
		}
	}
	if _, err := KWay(h, 0, Options{}); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestKWayQuickValidAssignment(t *testing.T) {
	a := gen.Grid2D(8, 8)
	h := ColumnNet(a)
	f := func(seed int64, kRaw uint8) bool {
		k := int(kRaw%6) + 1
		part, err := KWay(h, k, Options{Seed: seed})
		if err != nil || len(part) != h.V {
			return false
		}
		for _, p := range part {
			if p < 0 || int(p) >= k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestContractDropsSmallNets(t *testing.T) {
	h := ColumnNet(smallMatrix(t))
	// Match rows 0&1 (share net 0) -> net 0 becomes single-pin and is dropped.
	match := []int32{1, 0, 2, 3}
	coarse, cmap := contract(h, match, 3)
	if coarse.V != 3 {
		t.Fatalf("coarse.V = %d", coarse.V)
	}
	if err := coarse.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if cmap[0] != cmap[1] {
		t.Error("matched pair mapped apart")
	}
	for n := 0; n < coarse.Nets; n++ {
		if len(coarse.Pins(n)) < 2 {
			t.Errorf("net %d kept with %d pins", n, len(coarse.Pins(n)))
		}
	}
	// Vertex weights sum preserved.
	totalW := 0
	for v := 0; v < coarse.V; v++ {
		totalW += coarse.VertexWeight(v)
	}
	if totalW != h.V {
		t.Errorf("total weight %d, want %d", totalW, h.V)
	}
}

func TestFirstChoiceMatchIsMatching(t *testing.T) {
	h := ColumnNet(gen.Grid2D(10, 10))
	rng := rand.New(rand.NewSource(3))
	match, nCoarse := firstChoiceMatch(h, rng)
	pairs := 0
	for v := 0; v < h.V; v++ {
		m := int(match[v])
		if int(match[m]) != v {
			t.Fatalf("matching not symmetric at %d", v)
		}
		if m != v {
			pairs++
		}
	}
	if nCoarse != h.V-pairs/2 {
		t.Errorf("nCoarse = %d, want %d", nCoarse, h.V-pairs/2)
	}
}

func TestBisectBalanced(t *testing.T) {
	h := ColumnNet(gen.Grid2D(16, 16))
	rng := rand.New(rand.NewSource(4))
	side := Bisect(h, 0.5, Options{Seed: 4}, rng)
	w := [2]int{}
	for _, s := range side {
		w[s]++
	}
	if w[0] == 0 || w[1] == 0 {
		t.Fatalf("degenerate bisection %v", w)
	}
	total := w[0] + w[1]
	if w[0] > total*2/3 || w[1] > total*2/3 {
		t.Errorf("bisection weights %v too skewed", w)
	}
}

// starHypergraph is a hub of weight n with n unit-weight leaves and one
// two-pin net per spoke.
func starHypergraph(n int) *Hypergraph {
	h := &Hypergraph{V: n + 1, Nets: n, NPtr: make([]int, n+1), VWgt: make([]int32, n+1)}
	h.VWgt[0] = int32(n)
	for i := 1; i <= n; i++ {
		h.VWgt[i] = 1
		h.NPins = append(h.NPins, 0, int32(i))
		h.NPtr[i] = len(h.NPins)
	}
	h.BuildVertexIncidence()
	return h
}

// TestBisectStarStaysBalanced is the regression test for HP's initial
// bisection breaking its balance cap. On a star whose hub weighs as much
// as its six leaves, a BFS trial growing from a leaf used to grab the hub
// too (7 of 12, above the cap of 6) and win on its lower cut of 5 nets;
// FM cannot drain an overweight side, so the unbalanced bisection
// escaped at every seed. Side 0 must hold exactly half the weight: the
// hub alone or the six leaves.
func TestBisectStarStaysBalanced(t *testing.T) {
	h := starHypergraph(6)
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 20; seed++ {
		side := Bisect(h, 0.5, Options{Seed: seed}, rand.New(rand.NewSource(seed)))
		w := 0
		for v, s := range side {
			if s == 0 {
				w += h.VertexWeight(v)
			}
		}
		if w != 6 {
			t.Errorf("seed %d: side-0 weight %d, want the balanced 6", seed, w)
		}
	}
}

// TestInitialBisectionUnbalancedFallback pins the fallback: when no
// balanced trial exists (a weight-10 vertex between two unit vertices
// cannot be split within 3%), the growth still never pushes side 0 past
// its cap, and the lowest-cut unbalanced trial survives.
func TestInitialBisectionUnbalancedFallback(t *testing.T) {
	h := &Hypergraph{V: 3, Nets: 2, NPtr: []int{0, 2, 4}, NPins: []int32{0, 1, 1, 2}, VWgt: []int32{1, 10, 1}}
	h.BuildVertexIncidence()
	side := initialBisection(h, 0.5, Options{}, rand.New(rand.NewSource(1)))
	if side[0] != 0 || side[2] != 0 || side[1] != 1 {
		t.Fatalf("fallback bisection = %v, want the light vertices on side 0", side)
	}
}
