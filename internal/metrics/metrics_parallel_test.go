package metrics

import (
	"math/rand"
	"runtime"
	"testing"

	"sparseorder/internal/gen"
	"sparseorder/internal/sparse"
)

// TestProfileUnsortedRows is the regression test for the leftmost-nonzero
// bug: on a CSR whose rows are not column-sorted, the profile used to read
// ColIdx[RowPtr[i]] as the leftmost nonzero and undercount. The profile
// of a matrix must not depend on the storage order within rows.
func TestProfileUnsortedRows(t *testing.T) {
	// Row 2 stores columns {3, 0} in that order: the leftmost nonzero is 0,
	// contributing 2-0 = 2; reading the first stored entry (3) contributes 0.
	unsorted := &sparse.CSR{
		Rows: 3, Cols: 4,
		RowPtr: []int{0, 1, 2, 4},
		ColIdx: []int32{0, 1, 3, 0},
		Val:    []float64{1, 1, 1, 1},
	}
	if got := feat(unsorted, 1).Profile; got != 2 {
		t.Errorf("profile on unsorted rows = %d, want 2", got)
	}
	sorted := sortedRows(t, unsorted)
	if feat(unsorted, 1).Profile != feat(sorted, 1).Profile {
		t.Errorf("profile depends on within-row order: unsorted %d, sorted %d",
			feat(unsorted, 1).Profile, feat(sorted, 1).Profile)
	}

	// Same property on a random matrix with scrambled rows.
	rng := rand.New(rand.NewSource(4))
	a := &sparse.CSR{Rows: 40, Cols: 40, RowPtr: make([]int, 41)}
	for i := 0; i < 40; i++ {
		n := rng.Intn(6)
		for k := 0; k < n; k++ {
			a.ColIdx = append(a.ColIdx, int32(rng.Intn(40)))
			a.Val = append(a.Val, 1)
		}
		a.RowPtr[i+1] = len(a.ColIdx)
	}
	s := sortedRows(t, a)
	if feat(a, 1).Profile != feat(s, 1).Profile {
		t.Errorf("random matrix: profile unsorted %d != sorted %d", feat(a, 1).Profile, feat(s, 1).Profile)
	}
}

// sortedRows reassembles a through COO, which sorts every row (and sums
// repeated columns, leaving each row's leftmost column unchanged).
func sortedRows(t *testing.T, a *sparse.CSR) *sparse.CSR {
	t.Helper()
	s, err := sparse.FromCSR(a).ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestComputeWorkersMatchesCompute(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	unsym := sparse.NewCOO(70, 70, 400)
	for k := 0; k < 350; k++ {
		unsym.Append(rng.Intn(70), rng.Intn(70), rng.NormFloat64())
	}
	u, err := unsym.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	empty, err := sparse.NewCOO(10, 10, 0).ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []*sparse.CSR{
		gen.Grid2D(13, 13),
		gen.Scramble(gen.Grid2D(16, 16), 9),
		gen.WithDenseRows(gen.Grid2D(12, 12), 4, 0.3, 7),
		u,
		empty,
	} {
		for _, blocks := range []int{1, 8, 128} {
			want := computeOracle(a, blocks, blocks)
			for _, w := range []int{1, 2, 3, 4, runtime.GOMAXPROCS(0), 0} {
				got := ComputeWorkers(a, blocks, blocks, w)
				if got != want {
					t.Fatalf("blocks=%d workers=%d: features %+v, want %+v", blocks, w, got, want)
				}
			}
		}
	}
}

func BenchmarkReorderFeatures(b *testing.B) {
	a := gen.Scramble(gen.Grid3D(20, 20, 20), 3)
	for _, w := range []int{1, 4} {
		name := "serial"
		if w > 1 {
			name = "workers4"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ComputeWorkers(a, 128, 128, w)
			}
		})
	}
}
