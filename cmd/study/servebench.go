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
	"sparseorder/internal/stats"
)

// servingBenchRows are the matrix sizes of the serving sweep: the size
// the BENCH_obs history was measured at, serve-mixed's 2,000 rows and ten
// times that.
var servingBenchRows = []int{300, 2000, 20000}

// RunServingBench measures the serving path's instrumentation overhead and
// how a request's cost grows with the vector it carries: one warm SpMV
// request (cache hit, on the entry's shared plan) driven straight through
// the handler, for every size in servingBenchRows, in three telemetry
// modes:
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
// them into BENCH_obs.json next to the primitive micro-benchmarks. The
// metrics mode also splits each size's request into phases
// (servingPhases). It lives here, not in package server, so the daemon
// links neither the study harness nor the testing package.
func RunServingBench() ([]experiments.ObsMicroResult, []experiments.ObsServingPhases, error) {
	var out []experiments.ObsMicroResult
	var phases []experiments.ObsServingPhases
	for _, n := range servingBenchRows {
		rows, ph, err := runServingBenchAt(n)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, rows...)
		phases = append(phases, ph)
	}
	return out, phases, nil
}

// runServingBenchAt measures the three telemetry modes on an n-row banded
// matrix, and the phases of its request in the metrics mode.
func runServingBenchAt(n int) ([]experiments.ObsMicroResult, experiments.ObsServingPhases, error) {
	var phases experiments.ObsServingPhases
	a := gen.Banded(n, 4, 0.9, 1)
	var mm bytes.Buffer
	if err := sparse.WriteMatrixMarket(&mm, a); err != nil {
		return nil, phases, fmt.Errorf("serving bench corpus: %v", err)
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
		return nil, phases, err
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
		o := mode.obs()
		srv, err := server.New(server.Config{Threads: 1, Obs: o})
		if err != nil {
			return nil, phases, err
		}
		h := srv.Handler()

		// Upload once; every benchmark iteration is then a warm cache hit.
		up := httptest.NewRecorder()
		h.ServeHTTP(up, httptest.NewRequest(http.MethodPost, "/matrices", bytes.NewReader(mm.Bytes())))
		if up.Code != http.StatusOK {
			return nil, phases, fmt.Errorf("serving bench upload (%s, %d rows): status %d: %s", mode.name, n, up.Code, up.Body.String())
		}
		var ur struct {
			Key string `json:"key"`
		}
		if err := json.Unmarshal(up.Body.Bytes(), &ur); err != nil {
			return nil, phases, err
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
		if mode.name == "serve_spmv_metrics" {
			if phases, err = servingPhases(o.Metrics, n, serve); err != nil {
				return nil, phases, err
			}
		}
	}
	return out, phases, nil
}

// phaseRequests is how many requests each size's phase medians span.
const phaseRequests = 101

// servingPhases sends phaseRequests requests one at a time through a
// daemon whose metrics land in reg and reads each request's decode, spmv
// and encode time, and its whole latency, as the change in the sums of the
// daemon's histograms (sparseorder_server_phase_seconds and
// sparseorder_server_request_seconds, route spmv) across it.
func servingPhases(reg *obs.Registry, n int, serve func() int) (experiments.ObsServingPhases, error) {
	route := obs.Label{Key: "route", Value: "spmv"}
	hists := []*obs.Histogram{reg.Histogram("sparseorder_server_request_seconds", "", obs.DefBuckets, route)}
	names := []string{"decode", "spmv", "encode"}
	for _, ph := range names {
		hists = append(hists, reg.Histogram("sparseorder_server_phase_seconds", "", obs.DefBuckets,
			route, obs.Label{Key: "phase", Value: ph}))
	}
	samples := make([][]float64, len(hists))
	for i := 0; i < phaseRequests; i++ {
		before := make([]float64, len(hists))
		for j, h := range hists {
			before[j] = h.Sum()
		}
		if code := serve(); code != http.StatusOK {
			return experiments.ObsServingPhases{}, fmt.Errorf("serving phases (%d rows): spmv status %d", n, code)
		}
		for j, h := range hists {
			samples[j] = append(samples[j], (h.Sum()-before[j])*1e6)
		}
	}
	med := make([]float64, len(samples))
	for j, s := range samples {
		med[j] = stats.Quantile(s, 0.5)
	}
	p := experiments.ObsServingPhases{
		Rows: n, Requests: phaseRequests,
		RequestUs: med[0], DecodeUs: med[1], SpMVUs: med[2], EncodeUs: med[3],
	}
	if med[0] == 0 {
		return p, fmt.Errorf("serving phases (%d rows): the latency histogram recorded nothing", n)
	}
	p.EncodeShare = p.EncodeUs / p.RequestUs
	top := 1
	for j := 2; j < len(med); j++ {
		if med[j] > med[top] {
			top = j
		}
	}
	p.Dominant = names[top-1]
	return p, nil
}

// requestAllocs is the fewest heap allocations one request made over a
// few, with the collector paused: the allocations of the request's own
// code path. testing.Benchmark's allocs/op also counts what the collector's
// cycles cost the requests that follow them, and at 20,000 rows a request
// allocates enough to trigger a cycle or two by itself; that follows the
// bytes a request allocates, not its code path. The minimum also drops
// the occasional extra allocation of the trace ring's growth.
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
