package prng

import (
	"math"
	"math/rand"
	"testing"
)

// streamSeeds are the seeds whose streams must equal math/rand's: zero
// (math/rand substitutes 89482311), negative seeds, multiples of 2³¹−1
// (which reduce to zero too), the int64 extremes, and seeds derived by
// the recursion rule, which wrap around int64.
func streamSeeds() []int64 {
	const m = int32max
	seeds := []int64{0, 1, 2, 42, -1, -42, -m + 1, m - 1, m, -m, 2 * m, -3 * m,
		89482311, -89482311, m + 89482311, math.MinInt64, math.MaxInt64,
		math.MinInt64 + 1, math.MaxInt64 - 1}
	frontier := []int64{42, 7, -5}
	for d := 0; d < 6; d++ {
		var next []int64
		for _, s := range frontier {
			l, r := Branches(s)
			next = append(next, l, r)
		}
		seeds = append(seeds, next...)
		frontier = next
	}
	for s := int64(1000); s < 1300; s++ {
		seeds = append(seeds, s*7919-1e9)
	}
	return seeds
}

// TestSourceMatchesMathRand draws Int63, Uint64, Intn and Perm from a
// pooled Rand and from rand.New(rand.NewSource(seed)) and compares them.
func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range streamSeeds() {
		want := rand.New(rand.NewSource(seed))
		got := Get(seed)
		for i := 0; i < 3000; i++ {
			var a, b int64
			switch i % 4 {
			case 0:
				a, b = want.Int63(), got.Int63()
			case 1:
				a, b = int64(want.Uint64()), int64(got.Uint64())
			case 2:
				a, b = int64(want.Intn(1000)), int64(got.Intn(1000))
			default:
				n := 1 + i%(1<<20)
				a, b = int64(want.Intn(n)), int64(got.Intn(n))
			}
			if a != b {
				t.Fatalf("seed %d: draw %d = %d, want %d", seed, i, b, a)
			}
		}
		wp := want.Perm(257)
		gp := make([]int32, 257)
		Perm32(got, gp)
		for i := range wp {
			if int(gp[i]) != wp[i] {
				t.Fatalf("seed %d: Perm32[%d] = %d, want %d", seed, i, gp[i], wp[i])
			}
		}
		if a, b := want.Int63(), got.Int63(); a != b {
			t.Fatalf("seed %d: draw after Perm = %d, want %d", seed, b, a)
		}
		Put(got)
	}
}

// TestReseedMatchesFreshSource reseeds one Source many times, as the pool
// does, and checks each stream against a fresh math/rand source.
func TestReseedMatchesFreshSource(t *testing.T) {
	var s Source
	for _, seed := range streamSeeds() {
		s.Seed(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 2*rngLen; i++ {
			if a, b := want.Uint64(), s.Uint64(); a != b {
				t.Fatalf("seed %d: Uint64 %d = %d, want %d", seed, i, b, a)
			}
		}
	}
}

// TestCookedTableRecovered pins the first and last words of math/rand's
// rngCooked as its source lists them, so that a Go release that changes
// math/rand's generator fails here rather than in a digest.
func TestCookedTableRecovered(t *testing.T) {
	if cooked[0] != -4181792142133755926 || cooked[1] != -4576982950128230565 {
		t.Errorf("cooked[0:2] = %d, %d: math/rand's table is not the one recovered", cooked[0], cooked[1])
	}
	// Recovery from another seed must give the same table.
	s := rand.NewSource(cookedSeed + 12345).(rand.Source64)
	var mine Source
	mine.Seed(cookedSeed + 12345)
	for i := 0; i < rngLen; i++ {
		if a, b := s.Uint64(), mine.Uint64(); a != b {
			t.Fatalf("output %d = %d, want %d", i, b, a)
		}
	}
}

// TestBranches pins the recursion's seed rule.
func TestBranches(t *testing.T) {
	l, r := Branches(42)
	if l != 42*2654435761+1 || r != 42*2654435761+2 {
		t.Errorf("Branches(42) = %d, %d", l, r)
	}
}

func BenchmarkSeed(b *testing.B) {
	b.Run("math-rand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = rand.New(rand.NewSource(int64(i))).Int63()
		}
	})
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := Get(int64(i))
			sink = r.Int63()
			Put(r)
		}
	})
}

var sink int64
