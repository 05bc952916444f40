package main

import "testing"

// TestRunServingBench keeps the BENCH_obs serving section runnable: three
// telemetry modes at each sweep size, spmv succeeding in each, one phase
// split per size whose phase medians each lie within the request median,
// and a
// request's allocation count independent of the vector length (the body
// codec sizes every buffer up front, where encoding/json grew its slices
// with n). Timing is reported, not gated: CI machines are noisy.
func TestRunServingBench(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark calibration is slow")
	}
	rows, phases, err := RunServingBench()
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != len(servingBenchRows) {
		t.Fatalf("got %d phase rows, want one per size %v", len(phases), servingBenchRows)
	}
	// Every request's phases lie within that request, and order
	// statistics keep pointwise dominance, so each phase median is at most
	// the request median. Their sum is not bounded by it: a sum of medians
	// is not the median of the sums.
	for i, p := range phases {
		if p.Rows != servingBenchRows[i] || p.DecodeUs <= 0 || p.SpMVUs <= 0 || p.EncodeUs <= 0 ||
			p.DecodeUs > p.RequestUs || p.SpMVUs > p.RequestUs || p.EncodeUs > p.RequestUs || p.Dominant == "" {
			t.Errorf("phase row %+v: want %d rows, positive phase medians within the request median", p, servingBenchRows[i])
		}
	}
	modes := []string{"serve_spmv_nilobs", "serve_spmv_metrics", "serve_spmv_traced"}
	if want := len(modes) * len(servingBenchRows); len(rows) != want {
		t.Fatalf("got %d serving rows, want %d", len(rows), want)
	}
	allocs := map[string]map[int]int64{}
	for _, r := range rows {
		if r.NsPerOp <= 0 {
			t.Errorf("%s at %d rows: ns/op %v", r.Name, r.Rows, r.NsPerOp)
		}
		if allocs[r.Name] == nil {
			allocs[r.Name] = map[int]int64{}
		}
		allocs[r.Name][r.Rows] = r.AllocsPerOp
	}
	small, large := servingBenchRows[0], servingBenchRows[len(servingBenchRows)-1]
	for _, mode := range modes {
		byRows, ok := allocs[mode]
		if !ok || len(byRows) != len(servingBenchRows) {
			t.Errorf("serving rows for %s: %v, want one per size %v", mode, byRows, servingBenchRows)
			continue
		}
		// Under the race detector a request's allocation count varies from
		// one request to the next (sync.Pool drops a random share of Puts,
		// and net/http pools its buffers), so the counts are compared
		// without it: with the comparison forced on, 1 of 20 -race runs
		// failed (serve_spmv_metrics, 49 vs 48 allocs/op).
		if !raceEnabled && byRows[large] != byRows[small] {
			t.Errorf("%s: %d allocs/op at %d rows, %d at %d rows; want equal",
				mode, byRows[large], large, byRows[small], small)
		}
	}
}
