package reorder

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sparseorder/internal/cholesky"
	"sparseorder/internal/gen"
	"sparseorder/internal/graph"
	"sparseorder/internal/metrics"
	"sparseorder/internal/partition"
	"sparseorder/internal/sparse"
)

// bandwidth returns max |i-j| over a's nonzeros.
func bandwidth(a *sparse.CSR) int { return metrics.ComputeWorkers(a, 1, 1, 1).Bandwidth }

func randomSquare(rng *rand.Rand, n, nnz int) *sparse.CSR {
	coo := sparse.NewCOO(n, n, nnz+n)
	for i := 0; i < n; i++ {
		coo.Append(i, i, 1)
	}
	for k := 0; k < nnz; k++ {
		coo.Append(rng.Intn(n), rng.Intn(n), rng.NormFloat64())
	}
	a, err := coo.ToCSR()
	if err != nil {
		panic(err)
	}
	return a
}

func TestAllAlgorithmsProduceValidPermutations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		n := 20 + rng.Intn(80)
		a := randomSquare(rng, n, 4*n)
		for _, alg := range AllOrderings {
			p, err := Compute(alg, a, Options{Seed: int64(trial), Parts: 8})
			if err != nil {
				t.Fatalf("%s: %v", alg, err)
			}
			if len(p) != n || !p.IsValid() {
				t.Fatalf("%s returned an invalid permutation (len %d of %d)", alg, len(p), n)
			}
		}
	}
}

func TestPermutationValidityQuick(t *testing.T) {
	f := func(seed int64, nRaw uint8, algIdx uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%60) + 2
		a := randomSquare(rng, n, 3*n)
		alg := AllOrderings[int(algIdx)%len(AllOrderings)]
		p, err := Compute(alg, a, Options{Seed: seed, Parts: 4})
		return err == nil && len(p) == n && p.IsValid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestComputeRejectsRectangular(t *testing.T) {
	coo := sparse.NewCOO(2, 3, 1)
	coo.Append(0, 2, 1)
	a, _ := coo.ToCSR()
	if _, err := Compute(RCM, a, Options{}); err == nil {
		t.Error("accepted rectangular matrix")
	}
}

func TestComputeUnknownAlgorithm(t *testing.T) {
	a := gen.Grid2D(3, 3)
	if _, err := Compute(Algorithm("bogus"), a, Options{}); err == nil {
		t.Error("accepted unknown algorithm")
	}
}

func TestRCMOnPathRecoversBand(t *testing.T) {
	// A path graph scrambled, then RCM: bandwidth must return to 1.
	n := 64
	coo := sparse.NewCOO(n, n, 3*n)
	for i := 0; i < n; i++ {
		coo.Append(i, i, 2)
		if i+1 < n {
			coo.Append(i, i+1, -1)
			coo.Append(i+1, i, -1)
		}
	}
	path, _ := coo.ToCSR()
	scrambled := gen.Scramble(path, 42)
	if bandwidth(scrambled) <= 1 {
		t.Fatal("scramble did not destroy the band")
	}
	b, _, err := Apply(RCM, scrambled, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if bw := bandwidth(b); bw != 1 {
		t.Errorf("RCM bandwidth on path = %d, want 1", bw)
	}
}

func TestRCMReducesBandwidthOnScrambledGrid(t *testing.T) {
	a := gen.Scramble(gen.Grid2D(20, 20), 7)
	before := bandwidth(a)
	b, _, err := Apply(RCM, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	after := bandwidth(b)
	if after >= before/2 {
		t.Errorf("RCM bandwidth %d not well below scrambled %d", after, before)
	}
}

func TestCuthillMcKeeReversal(t *testing.T) {
	a := gen.Grid2D(6, 6)
	g, err := graph.FromMatrixSymmetrizedWorkers(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	cm := cuthillMcKee(g, pseudoPeripheralStart, 1, nil)
	rcm := reverseCuthillMcKee(g, pseudoPeripheralStart, 1, nil)
	for i := range cm {
		if cm[i] != rcm[len(rcm)-1-i] {
			t.Fatal("RCM is not the reversal of CM")
		}
	}
}

func TestRCMHandlesDisconnected(t *testing.T) {
	// Two disjoint paths.
	coo := sparse.NewCOO(8, 8, 20)
	for i := 0; i < 3; i++ {
		coo.Append(i, i+1, 1)
		coo.Append(i+1, i, 1)
	}
	for i := 4; i < 7; i++ {
		coo.Append(i, i+1, 1)
		coo.Append(i+1, i, 1)
	}
	a, _ := coo.ToCSR()
	g, err := graph.FromMatrixSymmetrizedWorkers(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := reverseCuthillMcKee(g, pseudoPeripheralStart, 1, nil)
	if len(p) != 8 || !p.IsValid() {
		t.Fatalf("invalid permutation on disconnected graph: %v", p)
	}
}

func TestAMDOnIsolatedVertices(t *testing.T) {
	g := &graph.Graph{N: 5, Ptr: []int{0, 0, 0, 0, 0, 0}}
	p := approxMinimumDegree(g, nil)
	if len(p) != 5 || !p.IsValid() {
		t.Fatalf("AMD on edgeless graph: %v", p)
	}
}

func TestAMDEliminatesLeavesFirstOnStar(t *testing.T) {
	// Star graph: the hub has degree n-1 and must be eliminated last.
	n := 10
	coo := sparse.NewCOO(n, n, 2*n)
	for i := 1; i < n; i++ {
		coo.Append(0, i, 1)
		coo.Append(i, 0, 1)
	}
	a, _ := coo.ToCSR()
	g, err := graph.FromMatrixSymmetrizedWorkers(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := approxMinimumDegree(g, nil)
	if !p.IsValid() {
		t.Fatal("invalid permutation")
	}
	// Once 8 leaves are gone the hub and the final leaf are tied at degree 1,
	// so the hub may legally go last or second to last — but never earlier.
	if pos := indexOf(p, 0); pos < len(p)-2 {
		t.Errorf("hub eliminated at position %d of %d, want one of the last two", pos, len(p))
	}
}

func indexOf(p sparse.Perm, v int) int {
	for i, x := range p {
		if x == v {
			return i
		}
	}
	return -1
}

func TestNDSeparatorStructure(t *testing.T) {
	// On a grid, ND must produce a valid permutation and, with the separator
	// ordered last, the final vertices should form a separator-ish band.
	a := gen.Grid2D(16, 16)
	g, err := graph.FromMatrixSymmetrizedWorkers(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := nestedDissection(g, ndLeafSize, Options{Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 256 || !p.IsValid() {
		t.Fatalf("ND invalid on grid")
	}
}

// TestNDRejectsOversizedEdgeWeights checks that nested dissection runs
// the partitioner's edge-weight check on its top-level graph: a total
// beyond the int32 range of the FM gains is an error, not a permutation
// refined with overflowing gains.
func TestNDRejectsOversizedEdgeWeights(t *testing.T) {
	g, err := graph.FromMatrixSymmetrizedWorkers(gen.Grid2D(16, 16), 1)
	if err != nil {
		t.Fatal(err)
	}
	g.EWgt = make([]int32, len(g.Adj))
	for k := range g.EWgt {
		g.EWgt[k] = math.MaxInt32 / 64
	}
	if _, err := nestedDissection(g, 16, Options{Seed: 1}, nil); err == nil {
		t.Fatal("ND accepted a graph whose total edge weight exceeds int32")
	}
}

func TestGPGroupsPartsContiguously(t *testing.T) {
	a := gen.Grid2D(16, 16)
	g, err := graph.FromMatrixSymmetrizedWorkers(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Seed: 3, Parts: 8}.withDefaults()
	p, err := graphPartitionOrder(g, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsValid() {
		t.Fatal("invalid permutation")
	}
	// Within each part rows keep their relative original order (stable sort):
	// the permutation restricted to each part must be increasing.
	// Recover parts by re-partitioning with the same seed.
	// Instead verify the stable-order property structurally: orderByPart output
	// applied to a monotone part assignment must be the identity.
	ident := orderByPart([]int32{0, 0, 1, 1, 2})
	for i, v := range ident {
		if v != i {
			t.Errorf("orderByPart not stable: %v", ident)
		}
	}
}

func TestHPOrderValid(t *testing.T) {
	a := gen.Grid2D(12, 12)
	p, err := hypergraphPartitionOrder(a, Options{Seed: 4, Parts: 8}.withDefaults(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 144 || !p.IsValid() {
		t.Fatal("HP invalid on grid")
	}
}

func TestGrayDenseRowsFirst(t *testing.T) {
	// Build a matrix with known dense rows (30 nonzeros) and sparse rows.
	n := 40
	rng := rand.New(rand.NewSource(5))
	coo := sparse.NewCOO(n, n, 200)
	denseRows := map[int]bool{7: true, 21: true, 33: true}
	for i := 0; i < n; i++ {
		count := 3
		if denseRows[i] {
			count = 30
		}
		for k := 0; k < count; k++ {
			coo.Append(i, rng.Intn(n), 1)
		}
	}
	a, _ := coo.ToCSR()
	p := grayOrder(a, grayDenseThreshold)
	if !p.IsValid() {
		t.Fatal("invalid Gray permutation")
	}
	nDense := 0
	for i := 0; i < n; i++ {
		if a.RowNNZ(i) > 20 {
			nDense++
		}
	}
	for i := 0; i < nDense; i++ {
		if a.RowNNZ(p[i]) <= 20 {
			t.Errorf("position %d holds sparse row %d before all dense rows", i, p[i])
		}
	}
	// Density reordering: dense block sorted by descending nonzero count.
	for i := 1; i < nDense; i++ {
		if a.RowNNZ(p[i-1]) < a.RowNNZ(p[i]) {
			t.Error("dense rows not in descending density order")
		}
	}
}

func TestGraySortsSparseRowsByGrayRank(t *testing.T) {
	n := 30
	rng := rand.New(rand.NewSource(6))
	coo := sparse.NewCOO(n, n, 90)
	for i := 0; i < n; i++ {
		for k := 0; k < 3; k++ {
			coo.Append(i, rng.Intn(n), 1)
		}
	}
	a, _ := coo.ToCSR()
	p := grayOrder(a, grayDenseThreshold)
	prev := uint64(0)
	for i, row := range p {
		r := grayRank(rowBitmap(a, row, grayBitmapBits))
		if i > 0 && r < prev {
			t.Fatalf("sparse rows not in Gray-rank order at %d", i)
		}
		prev = r
	}
}

func TestGrayRankInvertsGrayCode(t *testing.T) {
	for b := uint64(0); b < 1<<10; b++ {
		g := b ^ (b >> 1) // binary-to-Gray
		if grayRank(g) != b {
			t.Fatalf("grayRank(%b) = %d, want %d", g, grayRank(g), b)
		}
	}
}

func TestRowBitmapSections(t *testing.T) {
	coo := sparse.NewCOO(1, 16, 2)
	coo.Append(0, 0, 1)  // section 0 -> MSB
	coo.Append(0, 15, 1) // section 15 -> LSB
	a, _ := coo.ToCSR()
	bm := rowBitmap(a, 0, 16)
	if bm != (1<<15)|1 {
		t.Errorf("bitmap = %b, want %b", bm, (1<<15)|1)
	}
}

func TestApplySymmetricVsRows(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomSquare(rng, 40, 160)
	for _, alg := range AllOrderings {
		b, p, err := Apply(alg, a, Options{Seed: 1, Parts: 4})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if b.NNZ() != a.NNZ() {
			t.Errorf("%s changed nnz: %d -> %d", alg, a.NNZ(), b.NNZ())
		}
		var want *sparse.CSR
		if alg.Symmetric() {
			want, _ = sparse.PermuteSymmetricWorkers(a, p, 1)
		} else {
			want, _ = sparse.PermuteRowsWorkers(a, p, 1)
		}
		if !b.Equal(want) {
			t.Errorf("%s: Apply disagrees with manual permutation", alg)
		}
	}
}

func TestSymmetricFlag(t *testing.T) {
	for _, alg := range AllOrderings {
		want := alg != Gray
		if alg.Symmetric() != want {
			t.Errorf("%s.Symmetric() = %v", alg, alg.Symmetric())
		}
	}
}

func TestOriginalIsIdentity(t *testing.T) {
	a := gen.Grid2D(5, 5)
	p, err := Compute(Original, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range p {
		if v != i {
			t.Fatal("Original is not the identity")
		}
	}
}

func TestRCMStartStrategies(t *testing.T) {
	a := gen.Scramble(gen.Grid2D(16, 16), 9)
	g, err := graph.FromMatrixSymmetrizedWorkers(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []startStrategy{pseudoPeripheralStart, minDegreeStart} {
		p := reverseCuthillMcKee(g, strat, 1, nil)
		if len(p) != g.N || !p.IsValid() {
			t.Fatalf("strategy %d: invalid permutation", strat)
		}
		b, err := sparse.PermuteSymmetricWorkers(a, p, 1)
		if err != nil {
			t.Fatal(err)
		}
		if bw := bandwidth(b); bw >= bandwidth(a) {
			t.Errorf("strategy %d: bandwidth %d not reduced from %d", strat, bw, bandwidth(a))
		}
	}
}

func TestGPWeightedBalancesNonzeros(t *testing.T) {
	// A matrix with strongly varying row densities: the nnz-weighted
	// partitioner must produce parts whose nonzero weights respect the
	// balance tolerance even though their row counts differ.
	a := gen.WithDenseRows(gen.Grid2D(24, 24), 8, 0.3, 4)
	s, err := sparse.Symmetrize(a)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Seed: 2, Parts: 8}.withDefaults()
	pw, err := graphPartitionOrderWeighted(context.Background(), s, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !pw.IsValid() || len(pw) != s.Rows {
		t.Fatal("weighted GP invalid permutation")
	}
	// Re-run the underlying weighted partition and verify the nnz balance
	// directly (the ordering is a deterministic function of it).
	g, err := graph.FromMatrixSymmetrizedWorkers(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	g.VWgt = make([]int32, s.Rows)
	totalW := 0
	for i := 0; i < s.Rows; i++ {
		g.VWgt[i] = int32(s.RowNNZ(i))
		totalW += s.RowNNZ(i)
	}
	part, err := partition.KWay(g, 8, partition.Options{Seed: opts.Seed})
	if err != nil {
		t.Fatal(err)
	}
	w := make([]int, 8)
	for v, p := range part {
		w[p] += g.VertexWeight(v)
	}
	avg := float64(totalW) / 8
	for p, x := range w {
		if float64(x) > 1.5*avg {
			t.Errorf("weighted part %d has %d nnz, average %.0f", p, x, avg)
		}
	}
}

// minDegreeExact is a brute-force exact minimum-degree ordering with full
// elimination-graph maintenance (clique insertion), used as a quality
// oracle for AMD on small graphs.
func minDegreeExact(g *graph.Graph) sparse.Perm {
	n := g.N
	adj := make([]map[int32]bool, n)
	for v := 0; v < n; v++ {
		adj[v] = map[int32]bool{}
		for _, u := range g.Neighbors(v) {
			adj[v][u] = true
		}
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	order := make(sparse.Perm, 0, n)
	for len(order) < n {
		best, bestDeg := -1, n+1
		for v := 0; v < n; v++ {
			if alive[v] && len(adj[v]) < bestDeg {
				best, bestDeg = v, len(adj[v])
			}
		}
		// Eliminate: connect all neighbours pairwise.
		neigh := make([]int32, 0, len(adj[best]))
		for u := range adj[best] {
			neigh = append(neigh, u)
		}
		for _, u := range neigh {
			delete(adj[u], int32(best))
		}
		for i := 0; i < len(neigh); i++ {
			for j := i + 1; j < len(neigh); j++ {
				adj[neigh[i]][neigh[j]] = true
				adj[neigh[j]][neigh[i]] = true
			}
		}
		alive[best] = false
		adj[best] = nil
		order = append(order, best)
	}
	return order
}

func TestAMDQualityAgainstExactMinimumDegree(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 8; trial++ {
		n := 20 + rng.Intn(40)
		a := randomSquare(rng, n, 3*n)
		s, err := sparse.Symmetrize(a)
		if err != nil {
			t.Fatal(err)
		}
		g, err := graph.FromMatrixSymmetrizedWorkers(s, 1)
		if err != nil {
			t.Fatal(err)
		}
		amdPerm := approxMinimumDegree(g, nil)
		exactPerm := minDegreeExact(g)

		amdM, err := sparse.PermuteSymmetricWorkers(s, amdPerm, 1)
		if err != nil {
			t.Fatal(err)
		}
		exactM, err := sparse.PermuteSymmetricWorkers(s, exactPerm, 1)
		if err != nil {
			t.Fatal(err)
		}
		amdFill, err := cholesky.FactorNNZ(amdM)
		if err != nil {
			t.Fatal(err)
		}
		exactFill, err := cholesky.FactorNNZ(exactM)
		if err != nil {
			t.Fatal(err)
		}
		// The approximation may lose to exact minimum degree, but not by
		// much; a large gap would indicate a broken degree bound.
		if float64(amdFill) > 1.35*float64(exactFill)+10 {
			t.Errorf("trial %d: AMD fill %d far above exact MD fill %d", trial, amdFill, exactFill)
		}
	}
}
