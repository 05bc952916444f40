// Command spy renders the sparsity pattern of a matrix under each
// reordering — the visual comparison of the paper's Figure 1 — as ASCII
// art on stdout and, optionally, PGM images.
//
// Usage:
//
//	spy [-size N] [-algs RCM,ND,GP] [-pgm DIR] [-gen NAME | input.mtx]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"sparseorder/internal/gen"
	"sparseorder/internal/reorder"
	"sparseorder/internal/sparse"
	"sparseorder/internal/spy"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("spy: ")
	size := flag.Int("size", 24, "pattern cells per side")
	algsFlag := flag.String("algs", "RCM,ND,GP", "comma-separated reorderings to show next to the original")
	pgmDir := flag.String("pgm", "", "also write PGM images to this directory")
	genName := flag.String("gen", "", "use a named matrix from the synthetic collection")
	seed := flag.Int64("seed", 42, "collection / partitioner seed")
	flag.Parse()

	var a *sparse.CSR
	name := *genName
	switch {
	case *genName != "":
		for _, m := range gen.Collection(gen.ScaleTest, *seed) {
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
		name = filepath.Base(flag.Arg(0))
	default:
		log.Fatal("usage: spy [-gen NAME | input.mtx]")
	}

	labels := []string{"original"}
	matrices := []*sparse.CSR{a}
	for _, algName := range strings.Split(*algsFlag, ",") {
		alg := reorder.Algorithm(strings.TrimSpace(algName))
		b, _, err := reorder.Apply(alg, a, reorder.Options{Seed: *seed})
		if err != nil {
			log.Fatal(err)
		}
		labels = append(labels, string(alg))
		matrices = append(matrices, b)
	}

	fmt.Printf("%s: %dx%d, %d nonzeros\n", name, a.Rows, a.Cols, a.NNZ())
	fmt.Print(spy.SideBySide(labels, matrices, *size))

	if *pgmDir != "" {
		if err := os.MkdirAll(*pgmDir, 0o755); err != nil {
			log.Fatal(err)
		}
		for i, m := range matrices {
			path := filepath.Join(*pgmDir, fmt.Sprintf("%s_%s.pgm", name, labels[i]))
			f, err := os.Create(path)
			if err != nil {
				log.Fatal(err)
			}
			if err := spy.WritePGM(f, m, 256); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}
		log.Printf("wrote %d PGM images to %s", len(matrices), *pgmDir)
	}
}
