// Command spmvbench measures sparse matrix-vector multiplication on the
// host with the study's two kernels (1D row split and 2D nonzero split),
// optionally after reordering, and also reports the eight machine models'
// predictions.
//
// Usage:
//
//	spmvbench [-alg Original|RCM|AMD|ND|GP|HP|Gray] [-threads N]
//	          [-repeats N] [-ingest-workers N] [-gen NAME | input.mtx]
//	          [-cpuprofile FILE] [-memprofile FILE] [-trace FILE]
//
// With -gen, a named matrix from the synthetic collection is used instead
// of a Matrix Market file (run with -gen list to enumerate). Matrix Market
// files are ingested through the parallel streaming reader with
// -ingest-workers goroutines (0 = GOMAXPROCS); any worker count produces
// byte-identical matrices. -cpuprofile, -memprofile and -trace write the
// corresponding runtime profiles; the files are finalised on every exit
// path.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"sparseorder/internal/experiments"
	"sparseorder/internal/gen"
	"sparseorder/internal/machine"
	"sparseorder/internal/metrics"
	"sparseorder/internal/obs"
	"sparseorder/internal/reorder"
	"sparseorder/internal/sparse"
	"sparseorder/internal/spmv"
)

func main() {
	os.Exit(run())
}

func run() int {
	alg := flag.String("alg", "Original", "reordering to apply before the benchmark")
	threads := flag.Int("threads", runtime.GOMAXPROCS(0), "host threads")
	repeats := flag.Int("repeats", 100, "timed iterations; the best run is reported (as in the paper)")
	genName := flag.String("gen", "", "use a named matrix from the synthetic collection ('list' to enumerate)")
	scaleName := flag.String("scale", "study", "collection scale for -gen: test, study or large")
	seed := flag.Int64("seed", 42, "collection seed")
	ingestWorkers := flag.Int("ingest-workers", 0, "workers for Matrix Market file ingestion (0 = GOMAXPROCS); any value gives identical matrices")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	tracePath := flag.String("trace", "", "write a runtime execution trace to this file")
	flag.Parse()

	lg := obs.NewLogger(os.Stderr, obs.LevelInfo, "spmvbench: ")

	// fail replaces log.Fatal: returning through run() lets the deferred
	// profile Stop finalise -cpuprofile/-trace files on error exits too.
	fail := func(format string, args ...any) int {
		lg.Errorf(format, args...)
		return 1
	}

	prof, err := obs.StartProfiles(*cpuprofile, *memprofile, *tracePath)
	if err != nil {
		return fail("%v", err)
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			lg.Errorf("profile: %v", err)
		}
	}()

	scale, err := gen.ParseScale(*scaleName)
	if err != nil {
		return fail("-scale: %v", err)
	}

	var a *sparse.CSR
	switch {
	case *genName == "list":
		for _, m := range gen.Collection(scale, *seed) {
			fmt.Println(m.Describe())
		}
		return 0
	case *genName != "":
		for _, m := range gen.Collection(scale, *seed) {
			if m.Name == *genName {
				a = m.A
			}
		}
		if a == nil {
			return fail("no matrix named %q in the collection (use -gen list)", *genName)
		}
	case flag.NArg() == 1:
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			return fail("%v", err)
		}
		a, err = sparse.ReadMatrixMarketWorkers(f, *ingestWorkers)
		f.Close()
		if err != nil {
			return fail("%v", err)
		}
	default:
		return fail("usage: spmvbench [-gen NAME | input.mtx]")
	}

	// The reordering and plan-construction steps go through the ctx-aware
	// entry points so the instrumented pipeline is the one profiled; with
	// no Obs attached the instrumentation resolves to nil and is free.
	ctx := context.Background()

	if *alg != string(reorder.Original) {
		start := time.Now()
		var err error
		a, _, _, err = reorder.ApplyTimedCtx(ctx, reorder.Algorithm(*alg), a, reorder.Options{Seed: *seed})
		if err != nil {
			return fail("%v", err)
		}
		fmt.Printf("reordering (%s): %v\n", *alg, time.Since(start).Round(time.Microsecond))
	}

	fmt.Printf("matrix: %dx%d, %d nonzeros, ordering %s\n", a.Rows, a.Cols, a.NNZ(), *alg)
	f := metrics.ComputeWorkers(a, *threads, *threads, 1)
	fmt.Printf("features: bandwidth %d, profile %d, off-diagonal nnz %d (at %d blocks), 1D imbalance %.3f\n",
		f.Bandwidth, f.Profile, f.OffDiagNNZ, *threads, f.Imbalance1D)

	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = 1
	}
	y := make([]float64, a.Rows)

	// Plan construction is the setup cost the kernel times amortise; the
	// spmv/plan2d and spmv/planmerge spans put it next to them.
	_, sp := obs.Start(ctx, "spmv/plan2d")
	plan, err := spmv.NewPlan2D(a, *threads)
	sp.End()
	if err != nil {
		return fail("%v", err)
	}
	_, sp = obs.Start(ctx, "spmv/planmerge")
	mplan, err := spmv.NewPlanMerge(a, *threads)
	sp.End()
	if err != nil {
		return fail("%v", err)
	}
	for _, k := range []struct {
		name string
		mul  func() error
	}{
		{"1D", func() error { return spmv.Mul1D(a, x, y, *threads) }},
		{"2D", func() error { return spmv.Mul2D(a, x, y, plan) }},
		{"merge", func() error { return spmv.MulMerge(a, x, y, mplan) }},
	} {
		secs, err := experiments.TimeRuns(*repeats, k.mul)
		if err != nil {
			return fail("%v", err)
		}
		best := slices.Min(secs)
		fmt.Printf("host %s (%d threads): %v/iter, %.2f Gflop/s\n",
			k.name, *threads, time.Duration(float64(time.Second)*best), spmv.Gflops(a.NNZ(), best))
	}

	fmt.Println("\nmachine-model predictions:")
	fmt.Printf("%-10s %8s %12s %12s %10s\n", "machine", "threads", "1D Gflop/s", "2D Gflop/s", "imb(1D)")
	for _, m := range machine.Table2 {
		e1 := machine.EstimateSpMV(a, m, machine.Kernel1D)
		e2 := machine.EstimateSpMV(a, m, machine.Kernel2D)
		fmt.Printf("%-10s %8d %12.2f %12.2f %10.3f\n", m.Name, m.Cores, e1.Gflops, e2.Gflops, e1.Imbalance)
	}
	return 0
}
