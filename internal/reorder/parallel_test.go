package reorder

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"sparseorder/internal/gen"
	"sparseorder/internal/graph"
	"sparseorder/internal/sparse"
)

// identityWorkerCounts are the counts the determinism contract promises
// byte-identical results for (ISSUE: 1, 2, 4 and GOMAXPROCS; 0 resolves
// to GOMAXPROCS).
func identityWorkerCounts() []int {
	return []int{1, 2, 4, runtime.GOMAXPROCS(0), 0}
}

// TestWorkersByteIdenticalAllAlgorithms is the tentpole's central promise:
// for every algorithm, the permutation and the reordered matrix computed
// with any Workers value are identical to the serial ones. Run under
// -race in CI this also exercises the parallel paths for data races.
func TestWorkersByteIdenticalAllAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	mats := []*sparse.CSR{
		gen.Scramble(gen.Grid2D(18, 18), 3),
		randomSquare(rng, 150, 600), // unsymmetric pattern
	}
	for mi, a := range mats {
		for _, alg := range AllOrderings {
			opts := Options{Seed: 9, Parts: 8, Workers: 1}
			wantB, wantP, err := Apply(alg, a, opts)
			if err != nil {
				t.Fatalf("matrix %d %s serial: %v", mi, alg, err)
			}
			for _, w := range identityWorkerCounts() {
				opts.Workers = w
				gotB, gotP, err := Apply(alg, a, opts)
				if err != nil {
					t.Fatalf("matrix %d %s workers=%d: %v", mi, alg, w, err)
				}
				for i := range wantP {
					if gotP[i] != wantP[i] {
						t.Fatalf("matrix %d %s workers=%d: permutation differs at %d", mi, alg, w, i)
					}
				}
				if !gotB.Equal(wantB) {
					t.Fatalf("matrix %d %s workers=%d: reordered matrix differs", mi, alg, w)
				}
			}
		}
	}
}

// TestCuthillMcKeeWorkersMatchesSerial holds the one component-parallel
// Cuthill-McKee body to the serial oracle (rcm_oracle_test.go) at every
// worker count, 1 included.
func TestCuthillMcKeeWorkersMatchesSerial(t *testing.T) {
	// Five components of very different sizes, so more workers than
	// components and more components than workers both occur.
	coo := sparse.NewCOO(120, 120, 400)
	starts := []int{0, 40, 40 + 25, 40 + 25 + 3, 40 + 25 + 3 + 1}
	sizes := []int{40, 25, 3, 1, 51}
	for c, s := range starts {
		for i := s; i < s+sizes[c]-1; i++ {
			coo.Append(i, i+1, 1)
			coo.Append(i+1, i, 1)
		}
	}
	a, err := coo.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromMatrixSymmetrizedWorkers(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := cuthillMcKeeSerial(g, pseudoPeripheralRoot)
	for _, w := range []int{1, 2, 3, 4, 8, 16, 0} {
		got := cuthillMcKee(g, w, nil)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: length %d, want %d", w, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: differs from serial at %d", w, i)
			}
		}
		rev := reverseCuthillMcKee(g, w, nil)
		for i := range want {
			if rev[i] != want[len(want)-1-i] {
				t.Fatalf("workers=%d: reverse is not the reversal", w)
			}
		}
	}
}

// edgeCorpus builds the degenerate inputs every ordering must survive:
// a 1×1 matrix, a matrix with empty rows, disconnected components, and
// an unsymmetric pattern.
func edgeCorpus(t *testing.T) map[string]*sparse.CSR {
	t.Helper()
	mk := func(rows, cols int, entries [][2]int) *sparse.CSR {
		coo := sparse.NewCOO(rows, cols, len(entries))
		for _, e := range entries {
			coo.Append(e[0], e[1], 1)
		}
		a, err := coo.ToCSR()
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	return map[string]*sparse.CSR{
		"one-by-one":   mk(1, 1, [][2]int{{0, 0}}),
		"empty-rows":   mk(6, 6, [][2]int{{0, 0}, {2, 3}, {3, 2}, {5, 5}}),
		"disconnected": mk(8, 8, [][2]int{{0, 1}, {1, 0}, {2, 3}, {3, 2}, {6, 7}, {7, 6}}),
		"unsymmetric":  mk(5, 5, [][2]int{{0, 4}, {1, 2}, {4, 0}, {3, 1}, {2, 2}}),
		"all-empty":    mk(4, 4, nil),
	}
}

// TestAllOrderingsOnEdgeCorpus is the property test of the latent-bug
// sweep: every algorithm must return a valid permutation of the right
// length on every degenerate input, serial and parallel alike.
func TestAllOrderingsOnEdgeCorpus(t *testing.T) {
	for name, a := range edgeCorpus(t) {
		for _, alg := range AllOrderings {
			for _, w := range []int{1, 2, 4} {
				p, err := Compute(alg, a, Options{Seed: 1, Parts: 4, Workers: w})
				if err != nil {
					t.Errorf("%s on %s workers=%d: %v", alg, name, w, err)
					continue
				}
				if len(p) != a.Rows || !p.IsValid() {
					t.Errorf("%s on %s workers=%d: invalid permutation %v", alg, name, w, p)
				}
			}
		}
	}
}

func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	a := gen.Scramble(gen.Grid3D(22, 22, 22), 4)
	g, err := graph.FromMatrixSymmetrizedWorkers(a, 1)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkReorderRCM(b *testing.B) {
	g := benchGraph(b)
	for _, w := range []int{1, 4} {
		name := "serial"
		if w > 1 {
			name = "workers4"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				reverseCuthillMcKee(g, w, nil)
			}
		})
	}
}

// BenchmarkReorderPipeline measures the full ApplyTimed hot path (graph
// build + ordering + permutation) the study pays per (matrix, ordering).
func BenchmarkReorderPipeline(b *testing.B) {
	a := gen.Scramble(gen.Grid3D(18, 18, 18), 5)
	for _, w := range []int{1, 4} {
		name := "serial"
		if w > 1 {
			name = "workers4"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, _, err := ApplyTimed(RCM, a, Options{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReorderPartitionMesh measures GP (128 parts) and ND on the
// scrambled 32³ mesh that perfbench's mesh-solve workload reorders, at one
// worker, with allocations reported: the multilevel bisection's
// coarsening, induced subgraphs and FM state dominate both.
func BenchmarkReorderPartitionMesh(b *testing.B) {
	a := gen.Scramble(gen.Grid3D(32, 32, 32), 42)
	for _, alg := range []Algorithm{GP, ND} {
		b.Run(string(alg), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Compute(alg, a, Options{Seed: 42, Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestComputeGPTimedCtxMatchesCompute checks that the GP orderings
// computed together for several part counts equal the ones computed one
// part count at a time, at every worker count.
func TestComputeGPTimedCtxMatchesCompute(t *testing.T) {
	a := gen.Scramble(gen.Grid2D(40, 40), 8)
	parts := []int{16, 48, 32, 72, 128, 64}
	for _, w := range identityWorkerCounts() {
		perms, _, err := ComputeGPTimedCtx(context.Background(), a, parts, Options{Seed: 5, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range parts {
			want, err := Compute(GP, a, Options{Seed: 5, Parts: k, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for j := range want {
				if perms[i][j] != want[j] {
					t.Fatalf("workers=%d parts=%d: permutation differs at %d", w, k, j)
				}
			}
		}
	}
}
