package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
	"time"

	"sparseorder/internal/gen"
	"sparseorder/internal/obs"
	"sparseorder/internal/reorder"
)

// ObsBench is the observability-overhead measurement committed as
// BENCH_obs.json. It quantifies the layer's two cost regimes:
//
//   - Micro: the per-call cost of the instrumentation primitives, both on
//     the disabled path (no Obs attached — this is what every plain run
//     pays) and with a live metrics registry. The disabled path must be
//     allocation-free.
//   - Pipeline: best-of wall clock of the full instrumented reordering
//     pipeline (the PR 2 benchmark's combined path driven through
//     ApplyTimedCtx) with no sinks versus with a live registry. The
//     no-sink run is the regression-budget number: the instrumentation
//     call sites are compiled in but resolve to nil and must stay within
//     1% of the uninstrumented pipeline, which the micro numbers bound
//     (a handful of nanoseconds per span against milliseconds of work).
//   - Serving: one warm SpMV request through the daemon's handler with
//     telemetry nil / metrics-only / metrics+tracing, at 300, 2,000 and
//     20,000 rows, measured and merged in by cmd/study (RunServingBench
//     there), so the study harness does not import the daemon. The nilobs
//     rows are the request-path equivalent of the no-sink pipeline budget.
//   - ServingPhases: the same request at each size split into its decode,
//     multiply and encode phases, read off the daemon's own phase
//     histograms in metrics mode, so each size names its dominant layer.
//     A committed file may also hold serving_phases_parent, the same sweep
//     run on the parent commit of a change to the serving path, merged in
//     by hand as its before/after record; -exp benchobs never writes it.
type ObsBench struct {
	HostCPUs      int                `json:"host_cpus"`
	GoMaxProcs    int                `json:"gomaxprocs"`
	Repeats       int                `json:"repeats"` // pipeline best-of count
	Micro         []ObsMicroResult   `json:"micro"`
	Pipeline      []ObsPipelineRun   `json:"pipeline"`
	Serving       []ObsMicroResult   `json:"serving,omitempty"`
	ServingPhases []ObsServingPhases `json:"serving_phases,omitempty"`
}

// ObsMicroResult is one primitive's per-operation cost, measured with
// testing.Benchmark. Serving rows take AllocsPerOp from a separate count
// of one request's allocations with the collector paused.
type ObsMicroResult struct {
	Name string `json:"name"`
	// Rows is the matrix size of a serving row (0 for the primitives).
	Rows        int     `json:"rows,omitempty"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// ObsServingPhases is one serving size's warm SpMV request split into
// phases: per-request medians, in microseconds, over Requests requests,
// each phase the change in its histogram's sum across one request. The
// request median is the route's latency histogram. Each phase median is at
// most the request median, but the three need not sum to at most it: a
// sum of medians is not the median of the sums. EncodeShare is the encode median over the request median, and Dominant
// names the largest of the three phases.
type ObsServingPhases struct {
	Rows        int     `json:"rows"`
	Requests    int     `json:"requests"`
	RequestUs   float64 `json:"request_us"`
	DecodeUs    float64 `json:"decode_us"`
	SpMVUs      float64 `json:"spmv_us"`
	EncodeUs    float64 `json:"encode_us"`
	EncodeShare float64 `json:"encode_share"`
	Dominant    string  `json:"dominant"`
}

// ObsPipelineRun is one (mode, ordering) pipeline measurement. Overhead
// is this run's time relative to the same ordering's nosink run, in
// percent (nosink rows carry 0).
type ObsPipelineRun struct {
	Mode        string  `json:"mode"` // nosink, metrics
	Ordering    string  `json:"ordering"`
	Seconds     float64 `json:"seconds"`
	OverheadPct float64 `json:"overhead_pct"`
}

// RunObsBench measures the observability layer's overhead. The micro
// section uses testing.Benchmark and therefore self-calibrates; repeats
// only controls the pipeline best-of count.
func RunObsBench(seed int64, repeats int) (*ObsBench, error) {
	if repeats < 1 {
		repeats = 1
	}
	out := &ObsBench{
		HostCPUs:   runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Repeats:    repeats,
	}

	// Micro: disabled primitives against a context with no Obs attached
	// (the plain-run fast path), then the same primitives with a live
	// registry for contrast.
	bg := context.Background()
	live := &obs.Obs{Metrics: obs.NewRegistry(), Progress: obs.NewProgress()}
	lctx := obs.NewContext(bg, live)
	ph := live.Phase("bench/phase")
	var nilPh obs.Phase
	micros := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"span_disabled", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, sp := obs.Start(bg, "bench/span")
				sp.End()
			}
		}},
		{"phase_disabled", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				nilPh.Start().Stop()
			}
		}},
		{"span_enabled", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, sp := obs.Start(lctx, "bench/span")
				sp.End()
			}
		}},
		{"phase_enabled", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ph.Start().Stop()
			}
		}},
	}
	for _, m := range micros {
		r := testing.Benchmark(m.fn)
		out.Micro = append(out.Micro, ObsMicroResult{
			Name:        m.name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
		})
	}

	// Pipeline: the instrumented reordering pipeline end to end. RCM is
	// the PR 2 benchmark's hot path; GP additionally exercises the
	// partitioner Phase timings, the layer's highest-frequency call site.
	a := ReorderBenchMatrices(seed, gen.ScaleStudy)[0].A
	for _, alg := range []reorder.Algorithm{reorder.RCM, reorder.GP} {
		var nosink float64
		for _, mode := range []struct {
			name string
			ctx  context.Context
		}{
			{"nosink", bg},
			{"metrics", obs.NewContext(bg, &obs.Obs{Metrics: obs.NewRegistry()})},
		} {
			best := 0.0
			for it := 0; it < repeats; it++ {
				start := time.Now()
				if _, _, _, err := reorder.ApplyTimedCtx(mode.ctx, alg, a, reorder.Options{Seed: seed}); err != nil {
					return nil, fmt.Errorf("experiments: obs bench %s/%s: %v", alg, mode.name, err)
				}
				if el := time.Since(start).Seconds(); best == 0 || el < best {
					best = el
				}
			}
			r := ObsPipelineRun{Mode: mode.name, Ordering: string(alg), Seconds: best}
			if mode.name == "nosink" {
				nosink = best
			} else if nosink > 0 {
				r.OverheadPct = (best - nosink) / nosink * 100
			}
			out.Pipeline = append(out.Pipeline, r)
		}
	}
	return out, nil
}

// RenderObsBench formats an ObsBench as the indented JSON document
// committed as BENCH_obs.json.
func RenderObsBench(b *ObsBench) (string, error) {
	buf, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return "", err
	}
	return string(buf) + "\n", nil
}
