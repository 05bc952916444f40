package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"testing"

	"sparseorder/internal/experiments"
	"sparseorder/internal/gen"
	"sparseorder/internal/obs"
	"sparseorder/internal/server"
	"sparseorder/internal/sparse"
)

// servingBenchRows are the matrix sizes of the serving sweep: the size
// the BENCH_obs history was measured at, serve-mixed's 2,000 rows and ten
// times that.
var servingBenchRows = []int{300, 2000, 20000}

// RunServingBench measures the serving path's instrumentation overhead and
// how a request's cost grows with the vector it carries: one warm SpMV
// request (cache hit, plan pooled) driven straight through the handler, for
// every size in servingBenchRows, in three telemetry modes:
//
//	serve_spmv_nilobs   cfg.Obs nil — instrumentation compiled in but
//	                    resolving to nil recorders (the disabled-telemetry contract
//	                    extended to the request path)
//	serve_spmv_metrics  live registry: per-route latency, phase
//	                    histograms and status counters on pre-resolved
//	                    handles
//	serve_spmv_traced   metrics plus the request-trace ring and span —
//	                    everything cmd/serve enables by default
//
// x holds N(0,1) draws, so the body carries full-length decimals as real
// clients send them. The numbers include the HTTP mux, the body codec and
// the multiply itself, so the telemetry cost reads as the delta between
// modes at one size, not the absolute. Returned in
// experiments.ObsMicroResult form (Rows set) so -exp benchobs can merge
// them into BENCH_obs.json next to the primitive micro-benchmarks. It lives
// here, not in package server, so the daemon links neither the study
// harness nor the testing package.
func RunServingBench() ([]experiments.ObsMicroResult, error) {
	var out []experiments.ObsMicroResult
	for _, n := range servingBenchRows {
		rows, err := runServingBenchAt(n)
		if err != nil {
			return nil, err
		}
		out = append(out, rows...)
	}
	return out, nil
}

// runServingBenchAt measures the three telemetry modes on an n-row banded
// matrix.
func runServingBenchAt(n int) ([]experiments.ObsMicroResult, error) {
	a := gen.Banded(n, 4, 0.9, 1)
	var mm bytes.Buffer
	if err := sparse.WriteMatrixMarket(&mm, a); err != nil {
		return nil, fmt.Errorf("serving bench corpus: %v", err)
	}
	rng := rand.New(rand.NewSource(int64(n)))
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	body, err := json.Marshal(struct {
		X []float64 `json:"x"`
	}{x})
	if err != nil {
		return nil, err
	}

	modes := []struct {
		name string
		obs  func() *obs.Obs
	}{
		{"serve_spmv_nilobs", func() *obs.Obs { return nil }},
		{"serve_spmv_metrics", func() *obs.Obs {
			return &obs.Obs{Metrics: obs.NewRegistry()}
		}},
		{"serve_spmv_traced", func() *obs.Obs {
			return &obs.Obs{Metrics: obs.NewRegistry(), Requests: obs.NewTraceRing(obs.DefaultTraceCap)}
		}},
	}

	var out []experiments.ObsMicroResult
	for _, mode := range modes {
		srv, err := server.New(server.Config{Threads: 1, Obs: mode.obs()})
		if err != nil {
			return nil, err
		}
		h := srv.Handler()

		// Upload once; every benchmark iteration is then a warm cache hit.
		up := httptest.NewRecorder()
		h.ServeHTTP(up, httptest.NewRequest(http.MethodPost, "/matrices", bytes.NewReader(mm.Bytes())))
		if up.Code != http.StatusOK {
			return nil, fmt.Errorf("serving bench upload (%s, %d rows): status %d: %s", mode.name, n, up.Code, up.Body.String())
		}
		var ur struct {
			Key string `json:"key"`
		}
		if err := json.Unmarshal(up.Body.Bytes(), &ur); err != nil {
			return nil, err
		}
		url := "/spmv/" + ur.Key

		serve := func() int {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, url, bytes.NewReader(body)))
			return w.Code
		}
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if code := serve(); code != http.StatusOK {
					b.Fatalf("spmv status %d", code)
				}
			}
		})
		out = append(out, experiments.ObsMicroResult{
			Name:        mode.name,
			Rows:        n,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: requestAllocs(serve),
		})
	}
	return out, nil
}

// requestAllocs is the fewest heap allocations one request made over a
// few, with the collector paused: the allocations of the request's own
// code path. testing.Benchmark's allocs/op also counts what each GC cycle
// costs the next requests (sync.Pool re-pinning, a plan the pool dropped
// and the request rebuilds), and at 20,000 rows a request allocates enough
// to trigger a cycle or two by itself; that follows the bytes a request
// allocates, not its code path. The minimum also drops the occasional
// extra allocation of the trace ring's growth and, under the race
// detector, of sync.Pool's deliberate random drops.
func requestAllocs(serve func() int) int64 {
	const runs = 9
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fewest := int64(math.MaxInt64)
	var m0, m1 runtime.MemStats
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&m0)
		serve()
		runtime.ReadMemStats(&m1)
		fewest = min(fewest, int64(m1.Mallocs-m0.Mallocs))
	}
	return fewest
}
