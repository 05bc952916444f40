package experiments

import (
	"encoding/json"
	"testing"

	"sparseorder/internal/gen"
	"sparseorder/internal/stats"
)

// TestRunSolveBenchSmall runs the solve bench on a small scrambled mesh and
// checks the document's shape: every mesh-solve ordering in order, each
// solve converged with one multiply per iteration, and the sweep the
// median solve minus the multiplies.
func TestRunSolveBenchSmall(t *testing.T) {
	b, err := RunSolveBench(gen.Scramble(gen.Grid3D(8, 8, 8), 3), 42, 3)
	if err != nil {
		t.Fatal(err)
	}
	if b.Rows != 512 || b.Kernel != "2D" || b.Threads != 1 || b.Repeats != 3 {
		t.Errorf("header = %+v", b)
	}
	want := []string{"Original", "RCM", "AMD", "ND", "GP"}
	if len(b.Orderings) != len(want) {
		t.Fatalf("%d orderings, want %d", len(b.Orderings), len(want))
	}
	for i, o := range b.Orderings {
		if o.Ordering != want[i] {
			t.Errorf("ordering %d is %s, want %s", i, o.Ordering, want[i])
		}
		if o.Iterations <= 0 || o.Multiplies != o.Iterations {
			t.Errorf("%s: %d iterations, %d multiplies", o.Ordering, o.Iterations, o.Multiplies)
		}
		q := o.MultiplyQuartilesUs
		if !(o.BestSolveSeconds > 0 && o.BestSolveSeconds <= o.MedianSolveSeconds && q[0] <= q[1] && q[1] <= q[2]) {
			t.Errorf("%s: best %g, median %g, multiply quartiles %v", o.Ordering, o.BestSolveSeconds, o.MedianSolveSeconds, q)
		}
		if o.SweepSeconds != o.MedianSolveSeconds-o.MultiplySeconds || o.SweepShare != o.SweepSeconds/o.MedianSolveSeconds {
			t.Errorf("%s: sweep %g, share %g do not follow from median %g and multiplies %g",
				o.Ordering, o.SweepSeconds, o.SweepShare, o.MedianSolveSeconds, o.MultiplySeconds)
		}
	}
	text, err := RenderBench(b)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(text), &doc); err != nil {
		t.Fatalf("rendered document does not parse: %v", err)
	}
	if doc["host_cpus"] == nil || doc["orderings"] == nil {
		t.Errorf("rendered document lacks host_cpus or orderings: %s", text)
	}
}

// TestQuantile checks the interpolation the solve bench's medians and
// quartiles use, stats.Quantile's.
func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.75, 3.25}, {1, 4}} {
		if got := stats.Quantile(xs, c.q); got != c.want {
			t.Errorf("stats.Quantile(%v, %g) = %g, want %g", xs, c.q, got, c.want)
		}
	}
	if got := stats.Quantile([]float64{7}, 0.5); got != 7 {
		t.Errorf("quantile of one value = %g, want 7", got)
	}
}
