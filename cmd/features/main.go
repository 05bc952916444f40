// Command features prints the study's order-sensitive matrix features
// (paper §3.2) — bandwidth, profile, off-diagonal nonzero count and the 1D
// load-imbalance factor — for a matrix under every reordering.
//
// Usage:
//
//	features [-blocks N] [-threads N] [-gen NAME] [input.mtx]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"sparseorder/internal/gen"
	"sparseorder/internal/metrics"
	"sparseorder/internal/reorder"
	"sparseorder/internal/sparse"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("features: ")
	blocks := flag.Int("blocks", 128, "block grid for the off-diagonal nonzero count")
	threads := flag.Int("threads", 128, "thread count for the imbalance factor")
	genName := flag.String("gen", "", "use a named matrix from the synthetic collection")
	seed := flag.Int64("seed", 42, "collection seed / partitioner seed")
	flag.Parse()

	var a *sparse.CSR
	switch {
	case *genName != "":
		for _, m := range gen.Collection(gen.ScaleStudy, *seed) {
			if m.Name == *genName {
				a = m.A
			}
		}
		if a == nil {
			log.Fatalf("no matrix named %q in the collection", *genName)
		}
	case flag.NArg() == 1:
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		a, err = sparse.ReadMatrixMarketWorkers(f, 0)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatal("usage: features [-gen NAME | input.mtx]")
	}

	fmt.Printf("matrix: %dx%d, %d nonzeros\n", a.Rows, a.Cols, a.NNZ())
	fmt.Printf("%-10s %12s %14s %14s %10s\n", "order", "bandwidth", "profile", "offdiag-nnz", "imb-1D")
	for _, alg := range reorder.AllOrderings {
		b, _, err := reorder.Apply(alg, a, reorder.Options{Seed: *seed})
		if err != nil {
			log.Fatal(err)
		}
		f := metrics.ComputeWorkers(b, *blocks, *threads, 1)
		fmt.Printf("%-10s %12d %14d %14d %10.3f\n", alg, f.Bandwidth, f.Profile, f.OffDiagNNZ, f.Imbalance1D)
	}
}
