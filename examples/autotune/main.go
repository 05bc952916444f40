// autotune sketches the paper's future-work direction (§6): predicting the
// best reordering per matrix from cheap order-sensitive features instead
// of trying all of them. It scores every ordering of every collection
// matrix with the machine model, then evaluates a simple feature-based
// decision rule against the oracle and against always-GP (the study's
// static recommendation).
package main

import (
	"fmt"
	"log"

	"sparseorder/internal/gen"
	"sparseorder/internal/machine"
	"sparseorder/internal/metrics"
	"sparseorder/internal/reorder"
	"sparseorder/internal/sparse"
	"sparseorder/internal/stats"
)

func main() {
	log.SetFlags(0)
	machine.CacheScale = machine.CacheScaleFor(gen.ScaleTest.Factor())
	milan, _ := machine.ByName("Milan B")
	coll := gen.Collection(gen.ScaleTest, 42)

	fmt.Printf("%-18s %8s %-8s %8s %-8s %8s\n",
		"matrix", "imb-1D", "oracle", "speedup", "rule", "speedup")

	var oracleSp, ruleSp, gpSp []float64
	for _, m := range coll {
		base := machine.EstimateSpMV(m.A, milan, machine.Kernel1D)

		speedup := map[reorder.Algorithm]float64{}
		for _, alg := range reorder.Algorithms {
			b, _, err := reorder.Apply(alg, m.A, reorder.Options{Seed: 42, Parts: milan.Cores})
			if err != nil {
				log.Fatal(err)
			}
			e := machine.EstimateSpMV(b, milan, machine.Kernel1D)
			speedup[alg] = e.Gflops / base.Gflops
		}

		oracle := reorder.Algorithms[0]
		for _, alg := range reorder.Algorithms {
			if speedup[alg] > speedup[oracle] {
				oracle = alg
			}
		}
		rule := decide(m.A, milan.Cores)
		fmt.Printf("%-18s %8.2f %-8s %7.2fx %-8s %7.2fx\n",
			m.Name, base.Imbalance, oracle, speedup[oracle], rule, speedup[rule])

		oracleSp = append(oracleSp, speedup[oracle])
		ruleSp = append(ruleSp, speedup[rule])
		gpSp = append(gpSp, speedup[reorder.GP])
	}

	fmt.Printf("\ngeometric means — oracle: %.3f, feature rule: %.3f, always-GP: %.3f\n",
		stats.GeoMean(oracleSp), stats.GeoMean(ruleSp), stats.GeoMean(gpSp))
	fmt.Println("the rule should recover most of the oracle's gain over the static choice")
}

// decide is a hand-written stand-in for the paper's envisioned ML
// predictor: matrices that are already banded and balanced are left to
// RCM (cheap, preserves bands); strong imbalance or a huge off-diagonal
// share favours GP.
func decide(a *sparse.CSR, threads int) reorder.Algorithm {
	f := metrics.ComputeWorkers(a, threads, threads, 1)
	relBandwidth := float64(f.Bandwidth) / float64(a.Rows)
	offdiagShare := float64(f.OffDiagNNZ) / float64(a.NNZ())
	switch {
	case f.Imbalance1D > 1.5 || offdiagShare > 0.5:
		return reorder.GP
	case relBandwidth < 0.05:
		return reorder.RCM
	default:
		return reorder.GP
	}
}
