package cholesky

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sparseorder/internal/gen"
	"sparseorder/internal/reorder"
	"sparseorder/internal/sparse"
)

// arrowMatrix returns an n×n symmetric "arrowhead": dense last row/column
// plus the diagonal. With the natural order (arrow point last) there is no
// fill; reversed, it fills completely.
func arrowMatrix(n int) *sparse.CSR {
	coo := sparse.NewCOO(n, n, 3*n)
	for i := 0; i < n; i++ {
		coo.Append(i, i, 4)
		if i != n-1 {
			coo.Append(i, n-1, 1)
			coo.Append(n-1, i, 1)
		}
	}
	a, err := coo.ToCSR()
	if err != nil {
		panic(err)
	}
	return a
}

func randomSymmetric(rng *rand.Rand, n, edges int) *sparse.CSR {
	coo := sparse.NewCOO(n, n, 2*edges+n)
	for i := 0; i < n; i++ {
		coo.Append(i, i, 4)
	}
	for e := 0; e < edges; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		coo.Append(i, j, -1)
		coo.Append(j, i, -1)
	}
	a, err := coo.ToCSR()
	if err != nil {
		panic(err)
	}
	return a
}

func TestEliminationTreePath(t *testing.T) {
	// Tridiagonal: parent[i] = i+1.
	n := 8
	coo := sparse.NewCOO(n, n, 3*n)
	for i := 0; i < n; i++ {
		coo.Append(i, i, 2)
		if i+1 < n {
			coo.Append(i, i+1, -1)
			coo.Append(i+1, i, -1)
		}
	}
	a, _ := coo.ToCSR()
	parent, err := EliminationTree(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n-1; i++ {
		if parent[i] != int32(i+1) {
			t.Errorf("parent[%d] = %d, want %d", i, parent[i], i+1)
		}
	}
	if parent[n-1] != -1 {
		t.Errorf("root parent = %d, want -1", parent[n-1])
	}
}

func TestEliminationTreeArrow(t *testing.T) {
	a := arrowMatrix(6)
	parent, err := EliminationTree(a)
	if err != nil {
		t.Fatal(err)
	}
	// Every vertex hangs off the arrow point.
	for i := 0; i < 5; i++ {
		if parent[i] != 5 {
			t.Errorf("parent[%d] = %d, want 5", i, parent[i])
		}
	}
}

func TestPostorderVisitsChildrenFirst(t *testing.T) {
	parent := []int32{2, 2, 4, 4, -1}
	post := Postorder(parent)
	pos := make([]int, len(parent))
	for k, v := range post {
		pos[v] = k
	}
	for i, p := range parent {
		if p != -1 && pos[i] > pos[p] {
			t.Errorf("child %d after parent %d", i, p)
		}
	}
	if len(post) != 5 {
		t.Errorf("postorder length %d", len(post))
	}
}

func TestPostorderForest(t *testing.T) {
	parent := []int32{-1, 0, -1, 2}
	post := Postorder(parent)
	if len(post) != 4 {
		t.Fatalf("forest postorder length %d", len(post))
	}
	seen := make(map[int32]bool)
	for _, v := range post {
		seen[v] = true
	}
	if len(seen) != 4 {
		t.Error("postorder missed vertices")
	}
}

func TestColCountsArrowNoFill(t *testing.T) {
	// Arrow with point last: L has the same pattern as tril(A):
	// columns 0..n-2 have 2 entries (diag + last row), column n-1 has 1.
	n := 7
	a := arrowMatrix(n)
	counts, err := ColCounts(a)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < n-1; j++ {
		if counts[j] != 2 {
			t.Errorf("count[%d] = %d, want 2", j, counts[j])
		}
	}
	if counts[n-1] != 1 {
		t.Errorf("count[%d] = %d, want 1", n-1, counts[n-1])
	}
}

func TestColCountsArrowReversedFullFill(t *testing.T) {
	// Arrow point FIRST: eliminating the hub connects everything; L is
	// completely dense: counts n, n-1, ..., 1.
	n := 7
	a := arrowMatrix(n)
	rev := make(sparse.Perm, n)
	for i := range rev {
		rev[i] = n - 1 - i
	}
	b, err := sparse.PermuteSymmetricWorkers(a, rev, 1)
	if err != nil {
		t.Fatal(err)
	}
	counts, err := ColCounts(b)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < n; j++ {
		if counts[j] != int64(n-j) {
			t.Errorf("count[%d] = %d, want %d", j, counts[j], n-j)
		}
	}
}

func TestColCountsMatchNaiveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(60)
		a := randomSymmetric(rng, n, rng.Intn(4*n))
		fast, err := ColCounts(a)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := colCountsNaive(a)
		if err != nil {
			t.Fatal(err)
		}
		for j := range fast {
			if fast[j] != slow[j] {
				t.Fatalf("trial %d: count[%d] = %d, oracle %d", trial, j, fast[j], slow[j])
			}
		}
	}
}

func TestColCountsQuick(t *testing.T) {
	f := func(seed int64, nRaw, eRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%40) + 2
		a := randomSymmetric(rng, n, int(eRaw)%(3*n))
		fast, err1 := ColCounts(a)
		slow, err2 := colCountsNaive(a)
		if err1 != nil || err2 != nil {
			return false
		}
		for j := range fast {
			if fast[j] != slow[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFillRatioAtLeastHalf(t *testing.T) {
	// nnz(L) ≥ nnz(tril(A)) = (nnz(A)+n)/2, so the ratio is at least ~0.5.
	rng := rand.New(rand.NewSource(2))
	a := randomSymmetric(rng, 50, 120)
	r, err := FillRatio(a)
	if err != nil {
		t.Fatal(err)
	}
	if r < 0.5 {
		t.Errorf("fill ratio %v < 0.5", r)
	}
}

func TestFillReducingOrderingsReduceFill(t *testing.T) {
	// On a scrambled 2D grid, AMD and ND must beat the scrambled order.
	a := gen.Scramble(gen.Grid2D(16, 16), 3)
	base, err := FillRatio(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []reorder.Algorithm{reorder.AMD, reorder.ND} {
		b, _, err := reorder.Apply(alg, a, reorder.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		r, err := FillRatio(b)
		if err != nil {
			t.Fatal(err)
		}
		if r >= base {
			t.Errorf("%s fill ratio %.2f not below scrambled %.2f", alg, r, base)
		}
	}
}

func TestFactorNNZConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomSymmetric(rng, 30, 80)
	counts, err := ColCounts(a)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, c := range counts {
		sum += c
	}
	total, err := FactorNNZ(a)
	if err != nil {
		t.Fatal(err)
	}
	if total != sum {
		t.Errorf("FactorNNZ = %d, want %d", total, sum)
	}
}

func TestRejectsRectangular(t *testing.T) {
	coo := sparse.NewCOO(2, 3, 1)
	coo.Append(0, 0, 1)
	a, _ := coo.ToCSR()
	if _, err := EliminationTree(a); err == nil {
		t.Error("EliminationTree accepted rectangular matrix")
	}
	if _, err := ColCounts(a); err == nil {
		t.Error("ColCounts accepted rectangular matrix")
	}
	if _, err := FillRatio(a); err == nil {
		t.Error("FillRatio accepted rectangular matrix")
	}
}
