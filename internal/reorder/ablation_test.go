package reorder

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"sparseorder/internal/cholesky"
	"sparseorder/internal/gen"
	"sparseorder/internal/graph"
	"sparseorder/internal/hypergraph"
	"sparseorder/internal/machine"
	"sparseorder/internal/obs"
	"sparseorder/internal/par"
	"sparseorder/internal/partition"
	"sparseorder/internal/prng"
	"sparseorder/internal/sparse"
)

// graphPartitionOrderWeighted is the ablation variant of GP (see
// DESIGN.md): vertices are weighted by their row nonzero count, so the
// partitioner balances nonzeros instead of rows — the alternative METIS
// balance criterion the paper describes in §3.3 but does not adopt. It
// keeps ComputeTimedCtx's cancellation contract: the context's done
// channel reaches the partitioner's coarsening, initial-bisection and
// refinement loops, and a cancelled call returns the context's error,
// never a partial permutation. An Obs carried by the context
// (obs.NewContext) receives the partitioner's phase timings, and
// opts.Workers bounds the partitioner's goroutines, as on the production
// GP path. It lives beside its benchmark, not in production.
func graphPartitionOrderWeighted(ctx context.Context, a *sparse.CSR, opts Options) (sparse.Perm, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	g, err := graph.FromMatrixSymmetrizedWorkers(a, opts.Workers)
	if err != nil {
		return nil, err
	}
	g.VWgt = make([]int32, a.Rows)
	for i := 0; i < a.Rows; i++ {
		g.VWgt[i] = int32(a.RowNNZ(i))
	}
	parts, err := partition.KWayMulti(g, []int{opts.Parts}, partition.Options{
		Seed:    opts.Seed,
		Workers: opts.Workers,
		Cancel:  ctx.Done(),
		Obs:     obs.FromContext(ctx),
	})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return orderByPart(parts[0]), nil
}

// BenchmarkAblationGPWeighted compares the paper's row-balanced GP against
// nnz-weighted balancing on a matrix with skewed row densities, reporting
// the model speedup of each on Milan B.
func BenchmarkAblationGPWeighted(b *testing.B) {
	machine.CacheScale = machine.CacheScaleFor(gen.ScaleTest.Factor())
	a := gen.WithDenseRows(gen.Scramble(gen.Grid2D(100, 100), 2), 10, 0.1, 3)
	milan, _ := machine.ByName("Milan B")
	base := machine.EstimateSpMV(a, milan, machine.Kernel1D)
	b.Run("rows", func(b *testing.B) {
		var sp float64
		for i := 0; i < b.N; i++ {
			bm, _, err := Apply(GP, a, Options{Seed: 1, Parts: milan.Cores})
			if err != nil {
				b.Fatal(err)
			}
			sp = machine.EstimateSpMV(bm, milan, machine.Kernel1D).Gflops / base.Gflops
		}
		b.ReportMetric(sp, "model-speedup")
	})
	b.Run("nnz", func(b *testing.B) {
		var sp float64
		for i := 0; i < b.N; i++ {
			p, err := graphPartitionOrderWeighted(context.Background(), a, Options{Seed: 1, Parts: milan.Cores})
			if err != nil {
				b.Fatal(err)
			}
			bm, err := sparse.PermuteSymmetricWorkers(a, p, 1)
			if err != nil {
				b.Fatal(err)
			}
			sp = machine.EstimateSpMV(bm, milan, machine.Kernel1D).Gflops / base.Gflops
		}
		b.ReportMetric(sp, "model-speedup")
	})
}

// BenchmarkAblationRCMStart compares pseudo-peripheral and minimum-degree
// root selection, reporting the resulting bandwidth. Both run through the
// serial oracle, since production has only the pseudo-peripheral rule.
func BenchmarkAblationRCMStart(b *testing.B) {
	a := gen.Scramble(gen.Grid2D(100, 100), 5)
	g, err := graph.FromMatrixSymmetrizedWorkers(a, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		root rootRule
	}{
		{"pseudo-peripheral", pseudoPeripheralRoot},
		{"min-degree", minDegreeRoot},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var bw int
			for i := 0; i < b.N; i++ {
				p := reverseCuthillMcKeeSerial(g, tc.root)
				bm, err := sparse.PermuteSymmetricWorkers(a, p, 1)
				if err != nil {
					b.Fatal(err)
				}
				bw = bandwidth(bm)
			}
			b.ReportMetric(float64(bw), "bandwidth")
		})
	}
}

// The inputs of the Gray threshold, ND cutoff and HP objective ablations;
// each variant's permutation of its input is pinned by
// TestAblationDigests.
func grayAblationMatrix() *sparse.CSR { return gen.MixedStencil3D(16, 16, 16, 0.4, 7) }
func ndAblationMatrix() *sparse.CSR   { return gen.Scramble(gen.Grid2D(48, 48), 10) }
func hpAblationMatrix() *sparse.CSR   { return gen.Scramble(gen.Grid2D(80, 80), 13) }

// grayAblation sweeps the Gray dense-row threshold around the paper's 20.
var grayAblation = []struct {
	name      string
	threshold int
}{
	{"threshold-5", 5},
	{"threshold-20-paper", grayDenseThreshold},
	{"threshold-80", 80},
}

// ndAblation sweeps the nested-dissection leaf cutoff around the study's
// 128.
var ndAblation = []struct {
	name     string
	leafSize int
}{
	{"cutoff-32", 32},
	{"cutoff-128-default", ndLeafSize},
	{"cutoff-512", 512},
}

// hpAblation runs HP under PaToH's two objectives (paper §3.3: the study
// uses cut-net) at Milan B's 128 cores.
var hpAblation = []struct {
	name  string
	order func(a *sparse.CSR, opts Options) (sparse.Perm, error)
}{
	{"cut-net-paper", func(a *sparse.CSR, opts Options) (sparse.Perm, error) {
		return hypergraphPartitionOrder(a, opts, nil)
	}},
	{"connectivity", hypergraphPartitionOrderConnectivity},
}

// ndAblationOrder is the ND ordering of a with the given leaf cutoff.
func ndAblationOrder(a *sparse.CSR, leafSize int) (sparse.Perm, error) {
	g, err := graph.FromMatrixSymmetrizedWorkers(a, 1)
	if err != nil {
		return nil, err
	}
	return nestedDissection(g, leafSize, Options{Seed: 1}, nil)
}

// hpAblationOptions are the HP ablation's options: Milan B's core count
// of parts.
func hpAblationOptions() Options {
	milan, _ := machine.ByName("Milan B")
	return Options{Seed: 1, Parts: milan.Cores}
}

// hypergraphPartitionOrderConnectivity is HP under the connectivity-1
// objective, PaToH's other metric (paper §3.3), which for the column-net
// model equals the communication volume of parallel SpMV: the column-net
// hypergraph of a is partitioned into opts.Parts parts by
// kwayConnectivity and rows/columns are grouped by part. It lives beside
// its benchmark, not in production.
func hypergraphPartitionOrderConnectivity(a *sparse.CSR, opts Options) (sparse.Perm, error) {
	opts = opts.withDefaults()
	part := kwayConnectivity(hypergraph.ColumnNet(a), opts.Parts,
		hypergraph.Options{Seed: opts.Seed, Workers: opts.Workers})
	return orderByPart(part), nil
}

// kwayConnectivity partitions h into k parts by recursive bisection under
// the connectivity-1 objective. Unlike the cut-net recursion, a net cut
// by a bisection is not discarded: its pins on each side form a
// restricted net in the corresponding subproblem, because every
// additional part the net touches costs one more unit. Within a single
// bisection the two objectives coincide (a cut net spans exactly two
// parts), so it runs the production hypergraph.Bisect. Branches derive
// their seeds as hypergraph.KWay's do and write disjoint entries of the
// assignment, so it is byte-identical at any opts.Workers.
func kwayConnectivity(h *hypergraph.Hypergraph, k int, opts hypergraph.Options) []int32 {
	part := make([]int32, h.V)
	if k == 1 {
		return part
	}
	verts := make([]int32, h.V)
	for i := range verts {
		verts[i] = int32(i)
	}
	recursiveConn(h, verts, 0, k, part, opts, opts.Seed, par.NewLimiter(opts.Workers))
	return part
}

// connForkMinVerts is the branch size below which recursiveConn stops
// forking, as hypergraph.KWay's recursion does.
const connForkMinVerts = 4096

// recursiveConn splits verts into parts firstPart … firstPart+k-1.
func recursiveConn(root *hypergraph.Hypergraph, verts []int32, firstPart, k int, part []int32, opts hypergraph.Options, seed int64, lim *par.Limiter) {
	if k == 1 || len(verts) == 0 {
		for _, v := range verts {
			part[v] = int32(firstPart)
		}
		return
	}
	sub := inducedSplit(root, verts)
	kLeft := (k + 1) / 2
	frac := float64(kLeft) / float64(k)
	rng := prng.Get(seed)
	side := hypergraph.Bisect(sub, frac, opts, rng)
	prng.Put(rng)
	var left, right []int32
	for i, s := range side {
		if s == 0 {
			left = append(left, verts[i])
		} else {
			right = append(right, verts[i])
		}
	}
	leftSeed, rightSeed := prng.Branches(seed)
	if lim != nil && len(verts) > connForkMinVerts {
		lim.Fork(
			func() { recursiveConn(root, left, firstPart, kLeft, part, opts, leftSeed, lim) },
			func() { recursiveConn(root, right, firstPart+kLeft, k-kLeft, part, opts, rightSeed, lim) })
		return
	}
	recursiveConn(root, left, firstPart, kLeft, part, opts, leftSeed, lim)
	recursiveConn(root, right, firstPart+kLeft, k-kLeft, part, opts, rightSeed, lim)
}

// inducedSplit builds the sub-hypergraph on verts with net splitting:
// every net is restricted to its pins inside verts and kept if at least
// two pins remain, whether or not an earlier bisection cut it. Nets are
// numbered in the order verts first reach them.
func inducedSplit(root *hypergraph.Hypergraph, verts []int32) *hypergraph.Hypergraph {
	local := make([]int32, root.V)
	for i := range local {
		local[i] = -1
	}
	for i, v := range verts {
		local[v] = int32(i)
	}
	sub := &hypergraph.Hypergraph{V: len(verts), NPtr: []int{0}, VWgt: make([]int32, len(verts))}
	for i, v := range verts {
		sub.VWgt[i] = int32(root.VertexWeight(int(v)))
	}
	netSeen := make([]bool, root.Nets)
	for _, v := range verts {
		for _, n := range root.NetsOf(int(v)) {
			if netSeen[n] {
				continue
			}
			netSeen[n] = true
			start := len(sub.NPins)
			for _, u := range root.Pins(int(n)) {
				if local[u] >= 0 {
					sub.NPins = append(sub.NPins, local[u])
				}
			}
			if len(sub.NPins)-start < 2 {
				sub.NPins = sub.NPins[:start]
				continue
			}
			sub.NPtr = append(sub.NPtr, len(sub.NPins))
		}
	}
	sub.Nets = len(sub.NPtr) - 1
	sub.BuildVertexIncidence()
	return sub
}

// permDigest is the SHA-256 of p as little-endian int64 entries.
func permDigest(t *testing.T, p sparse.Perm) string {
	t.Helper()
	h := sha256.New()
	for _, v := range p {
		if err := binary.Write(h, binary.LittleEndian, int64(v)); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestAblationDigests pins every variant of the Gray threshold, ND cutoff
// and HP objective ablations. The digests were recorded when the
// variants were still options of the production orderings, so the
// test-side variants are shown to order exactly as those options did.
// The two HP digests were re-recorded twice: when HP's initial bisection
// stopped breaking its balance cap (TestBisectStarStaysBalanced), and
// when HP's FM pass stopped re-queueing pins whose gain a move left
// unchanged.
func TestAblationDigests(t *testing.T) {
	want := map[string]string{
		"gray/threshold-5":        "cba14b41b3a1681c8331da34b9348395670e1bf4860eba8484349643fc179686",
		"gray/threshold-20-paper": "f5945efe2173d4a8ff52ee66cead34417d75cfa9e619ed90347514f2eef17c12",
		"gray/threshold-80":       "2b8ca7a6734fee261d897b3726e7cc808285fb52b1770c10c70f76973da42178",
		"nd/cutoff-32":            "ec522b9bafa3a77e2db79f4af2e534813efd3d0782626447fe474ce84daa958d",
		"nd/cutoff-128-default":   "be8eed0708bb9d1bbfc6943a8f33930b652a8a4509466c382e7168f0f9de4a1a",
		"nd/cutoff-512":           "9221fe8062e5937891506d232dcfcce0dbda1e2b33523961fe3e1b1fc96e5c75",
		"hp/cut-net-paper":        "870e8f84aa597d09e0edf0441dfa1f3a087df3ff24594681d872e4749eb3ac99",
		"hp/connectivity":         "d2555598ee25e0a438b3279833594a9d13b827af29fab6c36829a9bd7fe30623",
	}
	got := map[string]sparse.Perm{}
	a := grayAblationMatrix()
	for _, tc := range grayAblation {
		got["gray/"+tc.name] = grayOrder(a, tc.threshold)
	}
	a = ndAblationMatrix()
	for _, tc := range ndAblation {
		p, err := ndAblationOrder(a, tc.leafSize)
		if err != nil {
			t.Fatal(err)
		}
		got["nd/"+tc.name] = p
	}
	a = hpAblationMatrix()
	for _, tc := range hpAblation {
		p, err := tc.order(a, hpAblationOptions())
		if err != nil {
			t.Fatal(err)
		}
		got["hp/"+tc.name] = p
	}
	for name, w := range want {
		p, ok := got[name]
		if !ok {
			t.Errorf("%s: no such variant", name)
			continue
		}
		if !p.IsValid() {
			t.Errorf("%s: invalid permutation", name)
		}
		if d := permDigest(t, p); d != w {
			t.Errorf("%s: digest %s, want %s", name, d, w)
		}
	}
}

// TestConnectivityWorkersByteIdentical checks the connectivity-1
// recursion's determinism above the fork threshold (5184 vertices >
// connForkMinVerts): the assignment is byte-identical at every worker
// count, and every part is used. Run under -race in CI this also
// exercises its forked branches for data races.
func TestConnectivityWorkersByteIdentical(t *testing.T) {
	h := hypergraph.ColumnNet(gen.Scramble(gen.Grid2D(72, 72), 5))
	if h.V <= connForkMinVerts {
		t.Fatalf("test hypergraph has %d vertices, need > %d to fork", h.V, connForkMinVerts)
	}
	want := kwayConnectivity(h, 8, hypergraph.Options{Seed: 4, Workers: 1})
	used := make([]bool, 8)
	for _, p := range want {
		used[p] = true
	}
	for p, u := range used {
		if !u {
			t.Errorf("part %d is empty", p)
		}
	}
	for _, w := range []int{2, 4, 7, 0} {
		got := kwayConnectivity(h, 8, hypergraph.Options{Seed: 4, Workers: w})
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("workers=%d: partition differs from serial at vertex %d", w, v)
			}
		}
	}
}

// modelSpeedup is the Milan B 1D model speedup of b over base.
func modelSpeedup(b *sparse.CSR, base machine.Estimate) float64 {
	milan, _ := machine.ByName("Milan B")
	return machine.EstimateSpMV(b, milan, machine.Kernel1D).Gflops / base.Gflops
}

// BenchmarkAblationGrayThreshold sweeps the Gray dense-row threshold
// around the paper's default of 20, reporting the Milan B model speedup.
// Mixed-stencil rows range from 7 to 27+ nonzeros, so the three
// thresholds genuinely change the dense/sparse split: 5 treats almost
// everything as dense (pure density sort), 80 treats everything as sparse
// (pure bitmap sort), 20 is the paper's configuration.
func BenchmarkAblationGrayThreshold(b *testing.B) {
	machine.CacheScale = machine.CacheScaleFor(gen.ScaleTest.Factor())
	a := grayAblationMatrix()
	milan, _ := machine.ByName("Milan B")
	base := machine.EstimateSpMV(a, milan, machine.Kernel1D)
	for _, tc := range grayAblation {
		b.Run(tc.name, func(b *testing.B) {
			var sp float64
			for i := 0; i < b.N; i++ {
				bm, err := sparse.PermuteRowsWorkers(a, grayOrder(a, tc.threshold), 1)
				if err != nil {
					b.Fatal(err)
				}
				sp = modelSpeedup(bm, base)
			}
			b.ReportMetric(sp, "model-speedup")
		})
	}
}

// BenchmarkAblationNDSmall sweeps the nested-dissection recursion cutoff,
// reporting the resulting Cholesky fill ratio.
func BenchmarkAblationNDSmall(b *testing.B) {
	a := ndAblationMatrix()
	for _, tc := range ndAblation {
		b.Run(tc.name, func(b *testing.B) {
			var fill float64
			for i := 0; i < b.N; i++ {
				p, err := ndAblationOrder(a, tc.leafSize)
				if err != nil {
					b.Fatal(err)
				}
				bm, err := sparse.PermuteSymmetricWorkers(a, p, 1)
				if err != nil {
					b.Fatal(err)
				}
				fill, err = cholesky.FillRatio(bm)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(fill, "fill-ratio")
		})
	}
}

// BenchmarkAblationHPObjective compares the HP ordering under PaToH's two
// objectives, reporting the model speedup on Milan B.
func BenchmarkAblationHPObjective(b *testing.B) {
	machine.CacheScale = machine.CacheScaleFor(gen.ScaleTest.Factor())
	a := hpAblationMatrix()
	milan, _ := machine.ByName("Milan B")
	base := machine.EstimateSpMV(a, milan, machine.Kernel1D)
	for _, tc := range hpAblation {
		b.Run(tc.name, func(b *testing.B) {
			var sp float64
			for i := 0; i < b.N; i++ {
				p, err := tc.order(a, hpAblationOptions())
				if err != nil {
					b.Fatal(err)
				}
				bm, err := sparse.PermuteSymmetricWorkers(a, p, 1)
				if err != nil {
					b.Fatal(err)
				}
				sp = modelSpeedup(bm, base)
			}
			b.ReportMetric(sp, "model-speedup")
		})
	}
}
