package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"sparseorder/internal/experiments"
	"sparseorder/internal/gen"
	"sparseorder/internal/obs"
	"sparseorder/internal/server"
	"sparseorder/internal/sparse"
)

// RunServingBench measures the serving path's instrumentation overhead:
// one warm SpMV request (cache hit, plan pooled) driven straight through
// the handler, in three telemetry modes:
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
// The numbers include the HTTP mux, JSON decode/encode and the multiply
// itself, so the telemetry cost reads as the delta between modes, not the
// absolute. Returned in experiments.ObsMicroResult form so -exp benchobs
// can merge them into BENCH_obs.json next to the primitive
// micro-benchmarks. It lives here, not in package server, so the daemon
// links neither the study harness nor the testing package.
func RunServingBench() ([]experiments.ObsMicroResult, error) {
	a := gen.Banded(300, 4, 0.9, 1)
	var mm bytes.Buffer
	if err := sparse.WriteMatrixMarket(&mm, a); err != nil {
		return nil, fmt.Errorf("serving bench corpus: %v", err)
	}
	x := make([]float64, a.Rows)
	for i := range x {
		x[i] = float64(i%7) - 3
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
			return nil, fmt.Errorf("serving bench upload (%s): status %d: %s", mode.name, up.Code, up.Body.String())
		}
		var ur struct {
			Key string `json:"key"`
		}
		if err := json.Unmarshal(up.Body.Bytes(), &ur); err != nil {
			return nil, err
		}
		url := "/spmv/" + ur.Key

		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, url, bytes.NewReader(body)))
				if w.Code != http.StatusOK {
					b.Fatalf("spmv status %d: %s", w.Code, w.Body.String())
				}
			}
		})
		out = append(out, experiments.ObsMicroResult{
			Name:        mode.name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
		})
	}
	return out, nil
}
