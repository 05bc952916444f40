package main

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"

	"sparseorder/internal/experiments"
	"sparseorder/internal/gen"
	"sparseorder/internal/obs"
	"sparseorder/internal/reorder"
	"sparseorder/internal/sparse"
)

// studyClients matches cmd/study's default matrix concurrency on the
// two-CPU reference host (GOMAXPROCS).
const studyClients = 2

// setupReps is how many times study and mesh-solve repeat their set-up;
// setup_s is the median of its process CPU times. In wall time the
// median of nine ingests moved by half between two rounds of runs.
const setupReps = 15

// collectionSeed is cmd/study's default -seed: the study workload runs the
// ScaleTest collection exactly as `cmd/study -scale test` generates it.
// Generating it from the run's seed instead moved per-matrix costs by
// more than the noise this benchmark must resolve.
const collectionSeed = 42

// runStudy is the study workload: a closed loop of studyClients clients,
// each evaluating whole passes over the ScaleTest collection with
// experiments.EvaluateMatrixContext and cmd/study's default Config. The
// run's seed shuffles each client's pass order, which decides which
// matrices run side by side.
func runStudy(cfg runConfig) (*result, error) {
	coll := gen.Collection(gen.ScaleTest, collectionSeed)
	bodies := make([][]byte, len(coll))
	var setBytes int64
	for i, m := range coll {
		var b bytes.Buffer
		if err := sparse.WriteMatrixMarket(&b, m.A); err != nil {
			return nil, err
		}
		bodies[i] = b.Bytes()
		setBytes += int64(len(m.A.ColIdx))*12 + int64(len(m.A.RowPtr))*8
	}

	// Set-up: ingest the collection's Matrix Market bytes.
	res := &result{values: map[string]float64{}}
	var ingest []float64
	var mats []gen.Matrix
	for range setupReps {
		secs, err := cpuSeconds(func() (err error) {
			mats, err = ingestAll(coll, bodies)
			return err
		})
		if err != nil {
			return nil, err
		}
		ingest = append(ingest, secs)
	}
	for i, m := range mats {
		if !sameCSR(m.A, coll[i].A) {
			return nil, fmt.Errorf("ingested %s differs from the generated matrix", m.Name)
		}
	}
	res.values["setup_s"] = median(ingest)
	res.note("working set: %.1f MiB of CSR across %d matrices", float64(setBytes)/(1<<20), len(mats))

	st := &studyState{cfg: cfg, mats: mats, digests: map[string][32]byte{}}
	if cfg.trace {
		st.tr = newTracer()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := startWindow(); err != nil {
		return nil, err
	}
	cpu0, err := procCPU("self")
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var wg sync.WaitGroup
	for c := range studyClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.client(c, start)
		}()
	}
	wg.Wait()
	cpu1, err := procCPU("self")
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	rss, err := procPeakRSS("self")
	if err != nil {
		return nil, err
	}

	res.attempted, res.failed = len(st.ops)+st.failed, st.failed
	for _, e := range st.errs {
		res.note("failed: %s", e)
	}
	var lat []float64
	for _, op := range st.ops {
		lat = append(lat, op.seconds*1e3)
	}
	sum := summarize(lat, latencyLadder)
	if !sum.hasTail {
		return nil, fmt.Errorf("only %d matrix evaluations: too few for a tail percentile", sum.n)
	}
	res.note("latency: %d matrix evaluations in %d whole passes; p50 %.1f ms, p%g %.1f ms",
		sum.n, st.passes, sum.p50, sum.tailQ, sum.tail)
	res.values["latency_p50_ms"] = sum.p50
	res.values["latency_tail_ms"] = sum.tail
	res.values["cpu_ms_per_op"] = float64((cpu1 - cpu0).Milliseconds()) / float64(res.attempted)
	res.values["peak_rss_mb"] = float64(rss) / (1 << 20)
	res.values["reorder_s"] = median(passSums(st.orderingOps, "order"))

	if cfg.trace {
		res.values["sparse.ingest_ms"] = median(ingest) * 1e3
		res.values["alloc_mb_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) / float64(res.attempted)
		if err := st.traceReport(res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func ingestAll(coll []gen.Matrix, bodies [][]byte) ([]gen.Matrix, error) {
	out := make([]gen.Matrix, len(coll))
	for i, m := range coll {
		a, err := sparse.ReadMatrixMarketWorkers(bytes.NewReader(bodies[i]), runtime.GOMAXPROCS(0))
		if err != nil {
			return nil, fmt.Errorf("ingest %s: %w", m.Name, err)
		}
		m.A = a
		out[i] = m
	}
	return out, nil
}

func sameCSR(a, b *sparse.CSR) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || len(a.ColIdx) != len(b.ColIdx) {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for k := range a.ColIdx {
		if a.ColIdx[k] != b.ColIdx[k] || a.Val[k] != b.Val[k] {
			return false
		}
	}
	return true
}

type studyState struct {
	cfg  runConfig
	mats []gen.Matrix
	tr   *tracer

	mu          sync.Mutex
	ops         []opRecord // verified evaluations
	orderingOps []opRecord // per matrix: the orderings' summed cost as the study reports it
	passes      int
	failed      int
	errs        []string
	digests     map[string][32]byte // matrix -> digest of its model results
	traced      []tracedOp
}

// tracedOp is one op of a traced run; untraced ops of the same run are
// kept too, to measure the tracing overhead.
type tracedOp struct {
	id      int
	key     string // what pairs a traced op with an untraced one
	traced  bool
	seconds float64
}

// studyPhases are the program's own phase histograms, each the time spent
// in one layer's public function, and the layer each feeds.
var studyPhases = []struct{ span, layer string }{
	{"study/estimate", "machine.estimate_ms"},
	{"study/features", "metrics.features_ms"},
	{"study/fill", "cholesky.fill_ms"},
}

// orderingLayer names the layer that computes each ordering.
var orderingLayer = map[reorder.Algorithm]string{
	reorder.RCM:  "reorder.rcm_ms",
	reorder.AMD:  "reorder.amd_ms",
	reorder.Gray: "reorder.gray_ms",
	reorder.ND:   "partition.nd_ms",
	reorder.GP:   "partition.gp_ms",
	reorder.HP:   "hypergraph.hp_ms",
}

// client runs whole passes until the run's time is up, and at least one.
func (st *studyState) client(c int, start time.Time) {
	reg := obs.NewRegistry()
	octx := obs.NewContext(context.Background(), &obs.Obs{Metrics: reg})
	rng := rand.New(rand.NewSource(st.cfg.seed*studyClients + int64(c)))
	for pass := 0; pass < 1 || time.Since(start).Seconds() < st.cfg.seconds; pass++ {
		st.mu.Lock()
		id := st.passes
		st.passes++
		st.mu.Unlock()
		for _, k := range rng.Perm(len(st.mats)) {
			m := st.mats[k]
			// A traced run traces every other op, the two clients taking
			// opposite halves, so each matrix is timed both ways and the
			// difference is the tracing overhead.
			traced := st.tr != nil && (c+pass+k)%2 == 0
			ctx := context.Background()
			var before []float64
			if traced {
				ctx = octx
				before = phaseSums(reg)
			}
			t0 := time.Now()
			r, err := experiments.EvaluateMatrixContext(ctx, m, experiments.Config{Seed: collectionSeed})
			t1 := time.Now()
			st.record(c, id, m, r, err, t0, t1, traced, before, reg)
		}
	}
}

func phaseSums(reg *obs.Registry) []float64 {
	out := make([]float64, len(studyPhases))
	for i, p := range studyPhases {
		out[i] = reg.Histogram(obs.SpanSecondsMetric, "span duration by span name", obs.DefBuckets,
			obs.Label{Key: "span", Value: p.span}).Sum()
	}
	return out
}

func (st *studyState) record(c, pass int, m gen.Matrix, r *experiments.MatrixResult, err error,
	t0, t1 time.Time, traced bool, before []float64, reg *obs.Registry) {
	secs := t1.Sub(t0).Seconds()
	if err == nil {
		err = checkStudyResult(r)
	}
	var digest [32]byte
	if err == nil {
		digest, err = modelDigest(r)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if err == nil {
		if prev, ok := st.digests[m.Name]; ok && prev != digest {
			err = fmt.Errorf("model results differ between evaluations")
		}
		st.digests[m.Name] = digest
	}
	if err != nil {
		st.failed++
		st.errs = append(st.errs, fmt.Sprintf("%s: %v", m.Name, err))
		return
	}
	opID := len(st.ops)
	st.ops = append(st.ops, opRecord{pass: pass, kind: "matrix", seconds: secs})
	var order float64
	for _, s := range r.ReorderSeconds {
		order += s
	}
	st.orderingOps = append(st.orderingOps, opRecord{pass: pass, kind: "order", seconds: order})
	if st.tr == nil {
		return
	}
	st.traced = append(st.traced, tracedOp{id: opID, key: m.Name, traced: traced, seconds: secs})
	if !traced {
		return
	}
	var kids []child
	after := phaseSums(reg)
	for i, p := range studyPhases {
		kids = append(kids, child{p.span, p.layer, after[i] - before[i]})
	}
	for _, alg := range reorder.Algorithms {
		ph := r.ReorderPhases[alg]
		kids = append(kids,
			child{"graph.FromMatrixSymmetrizedWorkers", "graph.build_ms", ph.GraphSeconds},
			child{"reorder." + string(alg), orderingLayer[alg], ph.OrderSeconds},
			child{"sparse.Permute", "sparse.permute_ms", ph.PermuteSeconds})
	}
	st.tr.op(opID, "experiments.EvaluateMatrixContext", "experiments.self_ms", t0, t1, kids)
}

// checkStudyResult checks that every ordering was evaluated. An invalid
// permutation never gets this far: reorder.ApplyTimedCtx and the permute
// functions validate it and fail the evaluation.
func checkStudyResult(r *experiments.MatrixResult) error {
	for _, alg := range reorder.Algorithms {
		if _, ok := r.Features[alg]; !ok {
			return fmt.Errorf("no features for %s", alg)
		}
		if _, ok := r.ReorderSeconds[alg]; !ok {
			return fmt.Errorf("no ordering time for %s", alg)
		}
	}
	return nil
}

// modelDigest hashes the deterministic part of a result: the modelled SpMV
// performance, features and fill ratios, not the host timings.
func modelDigest(r *experiments.MatrixResult) ([32]byte, error) {
	b, err := json.Marshal(struct {
		Perf     any
		Features any
		Fill     any
	}{r.Perf, r.Features, r.FillRatio})
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(b), nil
}

func (st *studyState) traceReport(res *result) error {
	spans := st.tr.snapshot()
	if err := st.tr.write(fmt.Sprintf("%s/spans-study-%d.jsonl", st.cfg.out, st.cfg.seed)); err != nil {
		return err
	}
	self := selfTimes(spans)
	layers := map[string]float64{}
	var opSeconds float64
	n := 0
	for _, t := range st.traced {
		if !t.traced {
			continue
		}
		n++
		opSeconds += t.seconds
		for l, v := range self[t.id] {
			layers[l] += v
		}
	}
	if n == 0 {
		return fmt.Errorf("no traced ops")
	}
	var attributed float64
	perOp := map[string]float64{}
	for l, v := range layers {
		perOp[l] = v / float64(n) * 1e3
		res.values[l] = perOp[l]
		attributed += v
	}
	name, share := dominant(layers, opSeconds)
	res.values["trace.op_ms"] = opSeconds / float64(n) * 1e3
	res.values["trace.traced_ops"] = float64(n)
	res.values["trace.dominant_share"] = share
	res.values["trace.overhead_pct"] = overheadPct(st.traced)
	res.note("trace: %d traced matrix evaluations, mean %.1f ms = layers %.1f%% + residual experiments.self_ms %.1f%%",
		n, opSeconds/float64(n)*1e3, (attributed-layers["experiments.self_ms"])/opSeconds*100,
		layers["experiments.self_ms"]/opSeconds*100)
	res.note("trace: dominant layer %s (%.1f%% of op time)", name, share*100)
	noteLayers(res, perOp, "per matrix")
	return nil
}

// overheadPct compares traced with untraced ops that share a key, by their
// medians so that one stalled op does not pass for overhead, and returns
// the traced ops' extra time in percent.
func overheadPct(ops []tracedOp) float64 {
	on, off := map[string][]float64{}, map[string][]float64{}
	for _, o := range ops {
		if o.traced {
			on[o.key] = append(on[o.key], o.seconds)
		} else {
			off[o.key] = append(off[o.key], o.seconds)
		}
	}
	var tOn, tOff float64
	for k, v := range on {
		if w, ok := off[k]; ok {
			tOn += median(v)
			tOff += median(w)
		}
	}
	if tOff == 0 {
		return 0
	}
	return (tOn/tOff - 1) * 100
}

// noteLayers prints every layer's time in ms, largest first.
func noteLayers(res *result, ms map[string]float64, unit string) {
	names := slices.Collect(maps.Keys(ms))
	slices.SortFunc(names, func(a, b string) int { return cmp.Compare(ms[b], ms[a]) })
	for _, l := range names {
		res.note("trace:   %-30s %10.3f ms %s", l, ms[l], unit)
	}
}
