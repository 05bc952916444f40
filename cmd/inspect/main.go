// Command inspect reports one matrix under the Original ordering and the
// study's six reorderings: reordering time, the order-sensitive features of
// paper §3.2, the Cholesky fill-in of §4.6, host SpMV rates, the eight
// machine models' predictions and the sparsity patterns of Figure 1.
//
// Usage:
//
//	inspect [-scale study] [-seed 42] [-threads N] [-repeats 100]
//	        [-size 24] [-pgm DIR] [-cpuprofile FILE] [-memprofile FILE]
//	        [-trace FILE] (-gen NAME | -gen list | input.mtx)
//
// -gen takes a matrix from the synthetic collection at -scale (-gen list
// enumerates it); otherwise one Matrix Market file is read with GOMAXPROCS
// ingest workers. Every ordering is computed once (seed -seed, default
// parts) and each part of the report reads the same reordered matrices.
// Features use the study's 128 blocks and threads. Fill is reported for
// the symmetric orderings, of A+Aᵀ when the pattern is unsymmetric. Host
// rates are the best of -repeats runs at -threads. The machine models run
// at -scale's machine.CacheScaleFor, as the study models that scale (25 at
// the default study scale). -cpuprofile, -memprofile and -trace write the
// runtime profiles, finalised on every exit path.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"

	"sparseorder/internal/cholesky"
	"sparseorder/internal/experiments"
	"sparseorder/internal/gen"
	"sparseorder/internal/machine"
	"sparseorder/internal/metrics"
	"sparseorder/internal/obs"
	"sparseorder/internal/reorder"
	"sparseorder/internal/sparse"
	"sparseorder/internal/spmv"
	"sparseorder/internal/spy"
)

// studyBlocks is the study's feature block grid and imbalance thread count.
const studyBlocks = 128

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "inspect:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) (err error) {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	genName := fs.String("gen", "", "a named matrix from the synthetic collection ('list' to enumerate)")
	scaleName := fs.String("scale", "study", "collection and cache-model scale: test, study or large")
	seed := fs.Int64("seed", 42, "collection and partitioner seed")
	threads := fs.Int("threads", runtime.GOMAXPROCS(0), "host SpMV threads")
	repeats := fs.Int("repeats", 100, "timed SpMV runs per kernel; the best is reported (as in the paper)")
	size := fs.Int("size", 24, "spy pattern cells per side")
	pgmDir := fs.String("pgm", "", "also write 256x256 PGM spy images to this directory")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	tracePath := fs.String("trace", "", "write a runtime execution trace to this file")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits with status 2
	scale, err := gen.ParseScale(*scaleName)
	if err != nil {
		return fmt.Errorf("-scale: %w", err)
	}
	prof, err := obs.StartProfiles(*cpuprofile, *memprofile, *tracePath)
	if err != nil {
		return err
	}
	defer func() {
		if perr := prof.Stop(); perr != nil && err == nil {
			err = fmt.Errorf("profile: %w", perr)
		}
	}()

	a, name, err := load(w, *genName, scale, *seed, fs.Args())
	if err != nil || a == nil {
		return err
	}
	machine.CacheScale = machine.CacheScaleFor(scale.Factor())
	fmt.Fprintf(w, "%s: %dx%d, %d nonzeros\n", name, a.Rows, a.Cols, a.NNZ())
	fillOf := a
	if !a.IsStructurallySymmetric() {
		fmt.Fprintln(w, "pattern is unsymmetric; fill is of A+Aᵀ")
		if fillOf, err = sparse.Symmetrize(a); err != nil {
			return err
		}
	}

	fmt.Fprintf(w, "features at %d blocks/threads; host GFLOP/s at %d threads, best of %d\n", studyBlocks, *threads, *repeats)
	fmt.Fprintf(w, "%-9s %10s %10s %12s %12s %7s %12s %9s %7s %7s %7s\n", "order", "reorder-s",
		"bandwidth", "profile", "offdiag-nnz", "imb-1D", "nnz(L)", "fill", "host-1D", "host-2D", "merge")
	var bs []*sparse.CSR // reordered matrices, in reorder.AllOrderings order
	for _, alg := range reorder.AllOrderings {
		b, p, ph, err := reorder.ApplyTimed(alg, a, reorder.Options{Seed: *seed})
		if err != nil {
			return err
		}
		nnzL, fill := "-", "-"
		if alg.Symmetric() {
			s, err := sparse.PermuteSymmetricWorkers(fillOf, p, 0)
			if err != nil {
				return err
			}
			l, err := cholesky.FactorNNZ(s)
			if err != nil {
				return err
			}
			nnzL, fill = strconv.FormatInt(l, 10), fmt.Sprintf("%.3f", float64(l)/float64(s.NNZ()))
		}
		host, err := hostGflops(b, *threads, *repeats)
		if err != nil {
			return err
		}
		f := metrics.ComputeWorkers(b, studyBlocks, studyBlocks, 1)
		fmt.Fprintf(w, "%-9s %10.4f %10d %12d %12d %7.3f %12s %9s %7.2f %7.2f %7.2f\n", alg, ph.Total(),
			f.Bandwidth, f.Profile, f.OffDiagNNZ, f.Imbalance1D, nnzL, fill, host[0], host[1], host[2])
		bs = append(bs, b)
	}

	fmt.Fprintf(w, "\nmachine models (CacheScale %g, each machine at its core count):\n", machine.CacheScale)
	fmt.Fprintf(w, "%-9s %-10s %7s %10s %10s %8s\n", "order", "machine", "threads", "1D Gflop/s", "2D Gflop/s", "imb(1D)")
	for i, b := range bs {
		for _, m := range machine.Table2 {
			e1, e2 := machine.EstimateSpMV(b, m, machine.Kernel1D), machine.EstimateSpMV(b, m, machine.Kernel2D)
			fmt.Fprintf(w, "%-9s %-10s %7d %10.2f %10.2f %8.3f\n",
				reorder.AllOrderings[i], m.Name, m.Cores, e1.Gflops, e2.Gflops, e1.Imbalance)
		}
	}

	fmt.Fprintf(w, "\nspy (%d cells per side):\n", *size)
	for i := 0; i < len(bs); i += 4 {
		j := min(i+4, len(bs))
		var labels []string
		for _, alg := range reorder.AllOrderings[i:j] {
			labels = append(labels, string(alg))
		}
		fmt.Fprint(w, spy.SideBySide(labels, bs[i:j], *size))
	}
	if *pgmDir == "" {
		return nil
	}
	if err := os.MkdirAll(*pgmDir, 0o755); err != nil {
		return err
	}
	for i, b := range bs {
		if err := writePGM(filepath.Join(*pgmDir, fmt.Sprintf("%s_%s.pgm", name, reorder.AllOrderings[i])), b); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "wrote %d PGM images to %s\n", len(bs), *pgmDir)
	return nil
}

// load returns the matrix to inspect and its name: the collection matrix
// named by -gen, else the one Matrix Market file in args. -gen list prints
// the collection and returns a nil matrix.
func load(w io.Writer, genName string, scale gen.Scale, seed int64, args []string) (*sparse.CSR, string, error) {
	switch {
	case genName == "list":
		for _, m := range gen.Collection(scale, seed) {
			fmt.Fprintln(w, m.Describe())
		}
		return nil, "", nil
	case genName != "":
		for _, m := range gen.Collection(scale, seed) {
			if m.Name == genName {
				return m.A, m.Name, nil
			}
		}
		return nil, "", fmt.Errorf("no matrix named %q in the %s collection (use -gen list)", genName, scale)
	case len(args) == 1:
		f, err := os.Open(args[0])
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		a, err := sparse.ReadMatrixMarketWorkers(f, 0)
		if err != nil {
			return nil, "", fmt.Errorf("%s: %w", args[0], err)
		}
		return a, filepath.Base(args[0]), nil
	default:
		return nil, "", fmt.Errorf("usage: inspect [flags] (-gen NAME | -gen list | input.mtx)")
	}
}

// hostGflops times the 1D, 2D and merge kernels on b at threads and
// returns each one's best rate over repeats runs.
func hostGflops(b *sparse.CSR, threads, repeats int) ([3]float64, error) {
	var rates [3]float64
	x := slices.Repeat([]float64{1}, b.Cols)
	y := make([]float64, b.Rows)
	plan, err := spmv.NewPlan2D(b, threads)
	if err != nil {
		return rates, err
	}
	mplan, err := spmv.NewPlanMerge(b, threads)
	if err != nil {
		return rates, err
	}
	for i, mul := range []func() error{
		func() error { return spmv.Mul1D(b, x, y, threads) },
		func() error { return spmv.Mul2D(b, x, y, plan) },
		func() error { return spmv.MulMerge(b, x, y, mplan) },
	} {
		secs, err := experiments.TimeRuns(repeats, mul)
		if err != nil {
			return rates, err
		}
		rates[i] = spmv.Gflops(b.NNZ(), slices.Min(secs))
	}
	return rates, nil
}

// writePGM writes b's 256x256 density image to path.
func writePGM(path string, b *sparse.CSR) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := spy.WritePGM(f, b, 256); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
