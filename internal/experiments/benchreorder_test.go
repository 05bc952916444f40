package experiments

import (
	"testing"

	"sparseorder/internal/gen"
)

// TestRunReorderBenchOrderingPaths runs the bench at test scale and checks
// the document's shape: every slice path at every worker count, and the
// ordering pipelines (amd/nd/gp/hp) at the serial baseline and the
// four-worker count with speedups filled in — the entries the CI smoke
// and the committed acceptance numbers key on.
func TestRunReorderBenchOrderingPaths(t *testing.T) {
	mats := ReorderBenchMatrices(1, gen.ScaleTest)
	bench, err := RunReorderBench(mats, []int{1, 2, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(bench.Matrices) != len(mats) {
		t.Fatalf("got %d matrices, want %d", len(bench.Matrices), len(mats))
	}
	for i, bm := range bench.Matrices {
		got := map[string]map[int]ReorderBenchRun{}
		for _, r := range bm.Runs {
			if got[r.Path] == nil {
				got[r.Path] = map[int]ReorderBenchRun{}
			}
			got[r.Path][r.Workers] = r
		}
		for _, path := range reorderBenchPaths {
			want := []int{1, 2, 4}
			if _, ordering := reorderBenchOrderings[path]; ordering {
				if !benchesOrdering(mats[i].Kind, path) {
					// Ordering pipelines skip the dense-row pathology, and
					// AMD the power-law hubs.
					if len(got[path]) != 0 {
						t.Errorf("%s/%s: ordering measured on a %s matrix", bm.Name, path, mats[i].Kind)
					}
					continue
				}
				want = []int{1, 4} // expensive pipelines: baseline + quoted count
				if len(got[path]) != 2 {
					t.Errorf("%s/%s: %d worker counts, want 2", bm.Name, path, len(got[path]))
				}
			}
			for _, w := range want {
				r, ok := got[path][w]
				if !ok {
					t.Errorf("%s/%s: no run at workers=%d", bm.Name, path, w)
					continue
				}
				if r.Seconds <= 0 {
					t.Errorf("%s/%s workers=%d: non-positive seconds", bm.Name, path, w)
				}
				if r.Speedup <= 0 {
					t.Errorf("%s/%s workers=%d: speedup not filled in", bm.Name, path, w)
				}
			}
		}
	}
}

// TestRunReorderBenchRejectsMissingBaseline pins the precondition: the
// serial baseline must lead the worker counts or speedups are undefined.
func TestRunReorderBenchRejectsMissingBaseline(t *testing.T) {
	if _, err := RunReorderBench(nil, []int{2, 4}, 1); err == nil {
		t.Fatal("worker counts without the serial baseline were accepted")
	}
}
