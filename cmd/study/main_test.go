package main

import "testing"

// TestRunServingBench keeps the BENCH_obs serving section runnable: three
// modes, spmv succeeding in each, and the nilobs mode not slower than
// traced by more than the telemetry budget allows (sanity, not a perf
// gate — CI machines are noisy).
func TestRunServingBench(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark calibration is slow")
	}
	rows, err := RunServingBench()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d serving rows, want 3", len(rows))
	}
	names := map[string]bool{}
	for _, r := range rows {
		names[r.Name] = true
		if r.NsPerOp <= 0 {
			t.Errorf("%s: ns/op %v", r.Name, r.NsPerOp)
		}
	}
	for _, want := range []string{"serve_spmv_nilobs", "serve_spmv_metrics", "serve_spmv_traced"} {
		if !names[want] {
			t.Errorf("missing serving row %s (got %v)", want, names)
		}
	}
}
