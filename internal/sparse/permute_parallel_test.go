package sparse

import (
	"math/rand"
	"runtime"
	"testing"
)

// workerCounts are the counts the determinism contract is tested at:
// one worker, small parallel, the benchmark's 4, GOMAXPROCS and the two
// "resolve to a default" inputs.
func workerCounts() []int {
	return []int{1, 2, 3, 4, runtime.GOMAXPROCS(0), 0, -1}
}

func randomPerm(rng *rand.Rand, n int) Perm {
	p := Identity(n)
	rng.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

func TestPermuteSymmetricWorkersMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 17, 97, 256} {
		a := randomCSR(rng, n, n, 6*n)
		p := randomPerm(rng, n)
		want, err := permuteSymmetricOracle(a, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workerCounts() {
			got, err := PermuteSymmetricWorkers(a, p, w)
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, w, err)
			}
			if !got.Equal(want) {
				t.Fatalf("n=%d workers=%d: result differs from the oracle", n, w)
			}
		}
	}
}

// TestPermuteSymmetricWorkersDenseRows drives rows through both long-row
// sort paths: a dense row (counting sort over its span) and a long but
// widely spread row (span too large, comparison-sort fallback). Row 11
// sits just past shortRowMax, the first length the long-row sorter takes.
func TestPermuteSymmetricWorkersDenseRows(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := 3000
	coo := NewCOO(n, n, 4*n)
	for i := 0; i < n; i++ {
		coo.Append(i, i, 1)
		coo.Append(i, rng.Intn(n), rng.NormFloat64())
	}
	for j := 0; j < 200; j++ { // dense row 5: contiguous span, counting path
		coo.Append(5, 700+j, float64(j))
	}
	for j := 0; j < 60; j++ { // long sparse row 9: span ~n >> 16*60, fallback
		coo.Append(9, rng.Intn(n), float64(j))
	}
	for j := 0; j <= shortRowMax; j++ { // row 11: shortRowMax+1 columns
		coo.Append(11, 1500+3*j, float64(j))
	}
	a, err := coo.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	p := randomPerm(rng, n)
	want, err := permuteSymmetricOracle(a, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts() {
		got, err := PermuteSymmetricWorkers(a, p, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !got.Equal(want) {
			t.Fatalf("workers=%d: result differs from the oracle", w)
		}
	}
}

func TestPermuteRowsWorkersMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	// Rectangular on purpose: PermuteRowsWorkers permutes rows only.
	a := randomCSR(rng, 120, 40, 700)
	p := randomPerm(rng, 120)
	want, err := permuteRowsOracle(a, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts() {
		got, err := PermuteRowsWorkers(a, p, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !got.Equal(want) {
			t.Fatalf("workers=%d: result differs from the oracle", w)
		}
	}
}

func TestPermuteWorkersErrorsMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	rect := randomCSR(rng, 4, 5, 8)
	square := randomCSR(rng, 5, 5, 10)
	cases := []struct {
		name string
		a    *CSR
		p    Perm
	}{
		{"non-square", rect, Identity(4)},
		{"short perm", square, Identity(3)},
		{"repeated entry", square, Perm{0, 1, 2, 3, 3}},
	}
	for _, c := range cases {
		_, oracleErr := permuteSymmetricOracle(c.a, c.p)
		if oracleErr == nil {
			t.Fatalf("%s: oracle accepted bad input", c.name)
		}
		for _, w := range workerCounts() {
			_, err := PermuteSymmetricWorkers(c.a, c.p, w)
			if err == nil || err.Error() != oracleErr.Error() {
				t.Errorf("%s workers=%d: error %v, want %v", c.name, w, err, oracleErr)
			}
		}
	}
	// Rows variant: only the permutation is checked, against Rows.
	_, oracleErr := permuteRowsOracle(square, Identity(3))
	for _, w := range workerCounts() {
		_, err := PermuteRowsWorkers(square, Identity(3), w)
		if err == nil || err.Error() != oracleErr.Error() {
			t.Errorf("rows workers=%d: error %v, want %v", w, err, oracleErr)
		}
	}
}

func benchPermuteMatrix() (*CSR, Perm) {
	rng := rand.New(rand.NewSource(99))
	a := randomCSR(rng, 20000, 20000, 200000)
	return a, randomPerm(rng, a.Rows)
}

func BenchmarkReorderPermuteSymmetric(b *testing.B) {
	a, p := benchPermuteMatrix()
	for _, w := range []int{1, 4} {
		b.Run(benchName(w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := PermuteSymmetricWorkers(a, p, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchName(workers int) string {
	if workers == 1 {
		return "serial"
	}
	return "workers4"
}
