package reorder

import (
	"context"
	"testing"

	"sparseorder/internal/gen"
)

// TestWorkersByteIdenticalLargeMatrix is the tentpole's determinism check
// above the parallel size thresholds, where the small-matrix identity test
// never leaves the serial paths: 6400 vertices engages ND's fork-join
// dissection (>1024) and the forked recursive bisections of GP and HP
// (>4096). AMD has no parallel path; it stays in the list to pin that its
// single serial engine ignores Workers. Run under -race in CI this
// doubles as the race check for every parallel path.
func TestWorkersByteIdenticalLargeMatrix(t *testing.T) {
	a := gen.Scramble(gen.Grid2D(80, 80), 7)
	for _, alg := range []Algorithm{AMD, ND, GP, HP} {
		opts := Options{Seed: 3, Parts: 16, Workers: 1}
		want, err := Compute(alg, a, opts)
		if err != nil {
			t.Fatalf("%s serial: %v", alg, err)
		}
		if len(want) != a.Rows || !want.IsValid() {
			t.Fatalf("%s serial: invalid permutation", alg)
		}
		for _, w := range []int{2, 4, 7, 0} {
			opts.Workers = w
			got, err := Compute(alg, a, opts)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", alg, w, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s workers=%d: permutation differs from serial at %d", alg, w, i)
				}
			}
		}
	}
}

// TestWeightedGPHonorsContext is the regression test for the ablation path
// dropping its context or its options: graphPartitionOrderWeighted must
// fail fast on a cancelled context, and under a live one it must return
// the same permutation at every worker count, as the production GP path
// does.
func TestWeightedGPHonorsContext(t *testing.T) {
	a := gen.Scramble(gen.Grid2D(30, 30), 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := graphPartitionOrderWeighted(ctx, a, Options{Seed: 1, Parts: 8}); err == nil {
		t.Fatal("cancelled context produced a permutation instead of an error")
	}
	want, err := graphPartitionOrderWeighted(context.Background(), a, Options{Seed: 1, Parts: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != a.Rows || !want.IsValid() {
		t.Fatal("weighted GP returned an invalid permutation")
	}
	for _, w := range []int{2, 4} {
		got, err := graphPartitionOrderWeighted(context.Background(), a, Options{Seed: 1, Parts: 8, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d differs from workers=1 at %d", w, i)
			}
		}
	}
}
