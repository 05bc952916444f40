package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"sparseorder/internal/cholesky"
	"sparseorder/internal/gen"
	"sparseorder/internal/reorder"
	"sparseorder/internal/solver"
	"sparseorder/internal/sparse"
	"sparseorder/internal/spmv"
)

const (
	meshSide = 32 // 32³ = 32,768 rows, 223,232 nonzeros
	// meshInputSeed scrambles the mesh and seeds the orderings. It is fixed
	// so every run reorders the same matrix the same way: AMD's time alone
	// moves 25% between scrambles, more than the metric's bound. --seed
	// draws the solution vector.
	meshInputSeed = 42
	// meshSolvesPerOp is how many CG solves a pass runs per ordering; it is
	// small so a run holds enough passes for reorder_s to be a median.
	meshSolvesPerOp = 3
	meshMinPasses   = 3
	// meshThreads is the solves' SpMV thread count. Two threads wait on
	// each other at every multiply, so on a shared 2-vCPU host their solve
	// time doubled in slow spells (104 to 213 ms, medians of 15 s windows)
	// while one thread's moved 142 to 184 ms.
	meshThreads = 1
	meshTol     = 1e-8
	// meshErrTol bounds ‖x − x_true‖/‖x_true‖ after un-permuting; the
	// residual tolerance above gives about 1e-9 on this matrix.
	meshErrTol = 1e-6
	// kernelReps is how many standalone multiplies a traced run times per
	// ordering to split a solve into kernel and vector work.
	kernelReps = 25
)

// meshOrderings are the orderings a pass applies, Original first.
var meshOrderings = []reorder.Algorithm{reorder.Original, reorder.RCM, reorder.AMD, reorder.ND, reorder.GP}

// runMesh is the mesh-solve workload: one closed-loop client that, per
// pass, reorders a scrambled 3D mesh with RCM, AMD, ND and GP and runs
// meshSolvesPerOp CG solves on the original and each reordered matrix.
func runMesh(cfg runConfig) (*result, error) {
	a0 := gen.Scramble(gen.Grid3D(meshSide, meshSide, meshSide), meshInputSeed)
	var body bytes.Buffer
	if err := sparse.WriteMatrixMarket(&body, a0); err != nil {
		return nil, err
	}
	res := &result{values: map[string]float64{}}
	var ingest []float64
	var a *sparse.CSR
	for range setupReps {
		secs, err := cpuSeconds(func() (err error) {
			a, err = sparse.ReadMatrixMarketWorkers(bytes.NewReader(body.Bytes()), runtime.GOMAXPROCS(0))
			return err
		})
		if err != nil {
			return nil, err
		}
		ingest = append(ingest, secs)
	}
	if !sameCSR(a, a0) {
		return nil, fmt.Errorf("ingested mesh differs from the generated matrix")
	}
	res.values["setup_s"] = median(ingest)
	res.note("working set: %d rows, %d nonzeros, %.1f MiB CSR per ordering", a.Rows, a.NNZ(),
		float64(a.NNZ()*12+len(a.RowPtr)*8)/(1<<20))

	rng := rand.New(rand.NewSource(cfg.seed))
	xTrue := make([]float64, a.Rows)
	for i := range xTrue {
		xTrue[i] = rng.Float64()*2 - 1
	}
	b := make([]float64, a.Rows)
	if err := spmv.Serial(a, xTrue, b); err != nil {
		return nil, err
	}

	ms := &meshState{cfg: cfg, a: a, b: b, xTrue: xTrue, kernels: map[reorder.Algorithm]*kernelTime{},
		reorders: map[reorder.Algorithm][]float64{}, solves: map[reorder.Algorithm][]float64{}}
	if cfg.trace {
		ms.tr = newTracer()
	}
	if err := startWindow(); err != nil {
		return nil, err
	}
	cpu0, err := procCPU("self")
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for pass := 0; pass < meshMinPasses || time.Since(start).Seconds() < cfg.seconds; pass++ {
		ms.pass(pass)
	}
	cpu1, err := procCPU("self")
	if err != nil {
		return nil, err
	}
	rss, err := procPeakRSS("self")
	if err != nil {
		return nil, err
	}

	res.attempted, res.failed = len(ms.ops)+ms.failed, ms.failed
	for _, e := range ms.errs {
		res.note("failed: %s", e)
	}
	var solves []float64
	for _, op := range ms.ops {
		if op.kind == "solve" {
			solves = append(solves, op.seconds*1e3)
		}
	}
	sum := summarize(solves, latencyLadder)
	if !sum.hasTail {
		return nil, fmt.Errorf("only %d solves: too few for a tail percentile", sum.n)
	}
	reorders, solveSums := passSums(ms.ops, "reorder"), passSums(ms.ops, "solve")
	res.note("latency: %d CG solves in %d whole passes; pooled p50 %.1f ms, p%g %.1f ms",
		sum.n, ms.passes, sum.p50, sum.tailQ, sum.tail)
	res.note("passes: reorder %s s, solve %s s", fmtList(reorders), fmtList(solveSums))
	// latency_p50_ms and reorder_s are each the sum over the matrices of
	// one median per matrix, so no percentile mixes matrices: a solve of
	// each of the five, and a reorder with each of the four orderings.
	// Both are CPU rather than wall time, because on a shared host the
	// wall time of the same reorders spread by a third between runs and
	// their CPU time by under a tenth, and the median one-thread solve's
	// wall time moved by a quarter between two rounds of runs.
	var solveMs, reorderS float64
	for _, alg := range meshOrderings {
		solveMs += median(ms.solves[alg])
		if alg != reorder.Original {
			reorderS += median(ms.reorders[alg])
		}
	}
	res.note("latency: sum of per-matrix median solve CPU times %.1f ms", solveMs)
	res.values["latency_p50_ms"] = solveMs
	res.values["latency_tail_ms"] = sum.tail
	res.values["reorder_s"] = reorderS
	res.values["cpu_ms_per_op"] = float64((cpu1 - cpu0).Milliseconds()) / float64(res.attempted)
	res.values["peak_rss_mb"] = float64(rss) / (1 << 20)
	if cfg.trace {
		res.values["sparse.ingest_ms"] = median(ingest) * 1e3
		if err := ms.traceReport(res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func fmtList(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf("%.2f", x)
	}
	return strings.Join(s, " ")
}

type meshState struct {
	cfg      runConfig
	a        *sparse.CSR
	b, xTrue []float64
	tr       *tracer

	ops    []opRecord // verified ops
	passes int
	failed int
	errs   []string
	traced []tracedOp // keyed "reorder/<alg>" or "solve/<alg>"
	// reorders are each ordering's reorder CPU seconds, one per pass;
	// solves are each matrix's verified solve milliseconds.
	reorders map[reorder.Algorithm][]float64
	solves   map[reorder.Algorithm][]float64
	// kernels and fills are measured once per ordering, in the first
	// pass of a traced run, outside any op's time.
	kernels map[reorder.Algorithm]*kernelTime
	fills   map[reorder.Algorithm]float64
	iters   []float64
}

// kernelTime is one ordering's standalone plan and kernel time.
type kernelTime struct {
	plan, kernel float64 // seconds; kernel is the median of kernelReps multiplies
	nnz          int
}

func (ms *meshState) pass(pass int) {
	ms.passes++
	for _, alg := range meshOrderings {
		m, perm := ms.a, sparse.Identity(ms.a.Rows)
		if alg != reorder.Original {
			var err error
			m, perm, err = ms.reorder(pass, alg)
			if err != nil {
				ms.fail("%s: %v", alg, err)
				continue
			}
		}
		if ms.tr != nil && ms.kernels[alg] == nil {
			if err := ms.measureKernel(alg, m); err != nil {
				ms.fail("%s kernel: %v", alg, err)
				continue
			}
		}
		for range meshSolvesPerOp {
			ms.solve(pass, alg, m, perm)
		}
	}
}

func (ms *meshState) fail(format string, args ...any) {
	ms.failed++
	ms.errs = append(ms.errs, fmt.Sprintf(format, args...))
}

func (ms *meshState) reorder(pass int, alg reorder.Algorithm) (*sparse.CSR, sparse.Perm, error) {
	var m *sparse.CSR
	var perm sparse.Perm
	var ph reorder.PhaseTimings
	var t0, t1 time.Time
	cpu, err := cpuSeconds(func() (err error) {
		t0 = time.Now()
		m, perm, ph, err = reorder.ApplyTimed(alg, ms.a, reorder.Options{Seed: meshInputSeed})
		t1 = time.Now()
		return err
	})
	if err == nil {
		err = perm.Validate()
	}
	if err != nil {
		return nil, nil, err
	}
	id := len(ms.ops)
	ms.ops = append(ms.ops, opRecord{pass: pass, kind: "reorder", seconds: t1.Sub(t0).Seconds()})
	ms.reorders[alg] = append(ms.reorders[alg], cpu)
	if ms.tr != nil {
		ms.traced = append(ms.traced, tracedOp{id, "reorder/" + string(alg), true, t1.Sub(t0).Seconds()})
		ms.tr.op(id, "reorder.ApplyTimed", "reorder.self_ms", t0, t1, []child{
			{"graph.FromMatrixSymmetrizedWorkers", "graph.build_ms", ph.GraphSeconds},
			{"reorder." + string(alg), orderingLayer[alg], ph.OrderSeconds},
			{"sparse.PermuteSymmetricWorkers", "sparse.permute_ms", ph.PermuteSeconds},
		})
		if (alg == reorder.AMD || alg == reorder.ND) && ms.fills[alg] == 0 {
			fr, err := cholesky.FillRatio(m)
			if err != nil {
				return nil, nil, fmt.Errorf("fill ratio: %w", err)
			}
			if ms.fills == nil {
				ms.fills = map[reorder.Algorithm]float64{}
			}
			ms.fills[alg] = fr
		}
	}
	return m, perm, nil
}

// measureKernel times plan construction and kernelReps standalone
// multiplies with the solve's kernel and thread count.
func (ms *meshState) measureKernel(alg reorder.Algorithm, m *sparse.CSR) error {
	t0 := time.Now()
	plan, err := spmv.NewPlan2D(m, meshThreads)
	if err != nil {
		return err
	}
	kt := &kernelTime{plan: time.Since(t0).Seconds(), nnz: m.NNZ()}
	x, y := make([]float64, m.Cols), make([]float64, m.Rows)
	for i := range x {
		x[i] = 1 / float64(i+1)
	}
	var reps []float64
	for range kernelReps {
		t := time.Now()
		if err := spmv.Mul2D(m, x, y, plan); err != nil {
			return err
		}
		reps = append(reps, time.Since(t).Seconds())
	}
	kt.kernel = median(reps)
	ms.kernels[alg] = kt
	return nil
}

func (ms *meshState) solve(pass int, alg reorder.Algorithm, m *sparse.CSR, perm sparse.Perm) {
	var r *solver.Result
	var t0, t1 time.Time
	cpu, err := cpuSeconds(func() (err error) {
		t0 = time.Now()
		r, err = solver.SolveReordered(m, perm, ms.b, solver.Options{Tol: meshTol, Threads: meshThreads, Kernel: solver.Kernel2D})
		t1 = time.Now()
		return err
	})
	if err == nil {
		err = checkSolution(r, ms.xTrue)
	}
	if err != nil {
		ms.fail("%s solve: %v", alg, err)
		return
	}
	id := len(ms.ops)
	ms.ops = append(ms.ops, opRecord{pass: pass, kind: "solve", seconds: t1.Sub(t0).Seconds()})
	ms.solves[alg] = append(ms.solves[alg], cpu*1e3)
	if ms.tr == nil {
		return
	}
	ms.iters = append(ms.iters, float64(r.Iterations))
	ms.traced = append(ms.traced, tracedOp{id, "solve/" + string(alg), true, t1.Sub(t0).Seconds()})
	kt := ms.kernels[alg]
	ms.tr.op(id, "solver.SolveReordered", "solver.vector_ms", t0, t1, []child{
		{"spmv.NewPlan2D", "spmv.plan_ms", kt.plan},
		{"spmv.Mul2D", "spmv.kernel_ms", kt.kernel * float64(r.SpMVCount)},
	})
}

func checkSolution(r *solver.Result, xTrue []float64) error {
	if !r.Converged {
		return fmt.Errorf("CG did not converge (residual %g after %d iterations)", r.Residual, r.Iterations)
	}
	var num, den float64
	for i, v := range xTrue {
		d := r.X[i] - v
		num += d * d
		den += v * v
	}
	if e := math.Sqrt(num / den); !(e <= meshErrTol) {
		return fmt.Errorf("relative error %g exceeds %g", e, meshErrTol)
	}
	return nil
}

func (ms *meshState) traceReport(res *result) error {
	spans := ms.tr.snapshot()
	if err := ms.tr.write(fmt.Sprintf("%s/spans-mesh-solve-%d.jsonl", ms.cfg.out, ms.cfg.seed)); err != nil {
		return err
	}
	self := selfTimes(spans)
	// Per-layer values are per pass: each op kind's mean traced self time
	// times how often the kind runs in a pass.
	perPass := map[string]float64{"reorder": 1, "solve": meshSolvesPerOp}
	type agg struct {
		n      int
		layers map[string]float64
		wall   float64
	}
	kinds := map[string]*agg{}
	for _, t := range ms.traced {
		k := kinds[t.key]
		if k == nil {
			k = &agg{layers: map[string]float64{}}
			kinds[t.key] = k
		}
		k.n++
		k.wall += t.seconds
		for l, v := range self[t.id] {
			k.layers[l] += v
		}
	}
	layers := map[string]float64{}
	var passWall float64
	for kind, k := range kinds {
		scale := perPass[strings.SplitN(kind, "/", 2)[0]] / float64(k.n)
		passWall += k.wall * scale
		for l, v := range k.layers {
			layers[l] += v * scale
		}
	}
	if len(kinds) != 2*len(meshOrderings)-1 {
		return fmt.Errorf("traced %d op kinds, want %d", len(kinds), 2*len(meshOrderings)-1)
	}
	var attributed float64
	perPassMs := map[string]float64{}
	for l, v := range layers {
		perPassMs[l] = v * 1e3
		res.values[l] = perPassMs[l]
		attributed += v
	}
	name, share := dominant(layers, passWall)
	res.values["trace.op_ms"] = passWall * 1e3
	res.values["trace.dominant_share"] = share
	n := 0
	for _, k := range kinds {
		n += k.n
	}
	res.values["trace.traced_ops"] = float64(n)
	// Every op is traced, and its spans are placed after it returns from
	// its timestamps and PhaseTimings, so tracing adds no work to an op.
	res.values["trace.overhead_pct"] = 0
	res.note("trace: every op traced; trace.overhead_pct is 0, not measured: spans are built after each op and add no work to it")

	var flops, kernelSecs float64
	for _, alg := range meshOrderings {
		kt := ms.kernels[alg]
		res.values["spmv.kernel_us."+strings.ToLower(string(alg))] = kt.kernel * 1e6
		flops += 2 * float64(kt.nnz)
		kernelSecs += kt.kernel
	}
	res.values["spmv.gflops"] = flops / kernelSecs / 1e9
	res.values["spmv.bytes_per_nnz"] = bytesPerNNZ(ms.a)
	res.values["solver.iterations"] = median(ms.iters)
	res.values["cholesky.fill_ratio_amd"] = ms.fills[reorder.AMD]
	res.values["cholesky.fill_ratio_nd"] = ms.fills[reorder.ND]
	residual := layers["reorder.self_ms"] + layers["solver.vector_ms"]
	res.note("trace: per pass of %.2f s op time = layers %.1f%% + residuals reorder.self_ms and solver.vector_ms %.1f%%",
		passWall, (attributed-residual)/passWall*100, residual/passWall*100)
	res.note("trace: dominant layer %s (%.1f%% of pass op time)", name, share*100)
	res.note("trace: spmv.bytes_per_nnz is computed (compulsory CSR traffic), not measured")
	noteLayers(res, perPassMs, "per pass")
	return nil
}

// bytesPerNNZ is the compulsory memory traffic of one CSR multiply per
// nonzero: values and column indices once, row pointers once, x and y
// once each. It is computed, not measured.
func bytesPerNNZ(a *sparse.CSR) float64 {
	b := a.NNZ()*(8+4) + len(a.RowPtr)*8 + a.Cols*8 + a.Rows*8
	return float64(b) / float64(a.NNZ())
}
