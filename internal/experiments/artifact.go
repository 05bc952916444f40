package experiments

import (
	"fmt"
	"io"

	"sparseorder/internal/machine"
	"sparseorder/internal/reorder"
)

// artifactOrderings is the column order of the artifact files (the
// paper's data layout, which differs from the presentation order):
// WriteArtifactFile writes the per-ordering columns in this order, and
// the round-trip test reads them back in it.
var artifactOrderings = []reorder.Algorithm{
	reorder.Original, reorder.RCM, reorder.ND, reorder.AMD,
	reorder.GP, reorder.HP, reorder.Gray,
}

// WriteArtifactFile renders one machine's results in the layout of the
// paper's artifact data files: one row per matrix; five metadata columns
// (group, name, rows, cols, nonzeros), the thread count, then seven columns
// per ordering in the order original, RCM, ND, AMD, GP, HP, Gray:
// min/max/mean nonzeros per thread, imbalance factor, seconds per
// iteration, max Gflop/s, mean Gflop/s. (The deterministic model makes the
// max and mean rates coincide.)
func WriteArtifactFile(w io.Writer, s *StudyResult, mach string, k machine.Kernel) error {
	cores := 0
	for _, mc := range s.Config.Machines {
		if mc.Name == mach {
			cores = mc.Cores
		}
	}
	if cores == 0 {
		return fmt.Errorf("experiments: machine %q not in study", mach)
	}
	if _, err := fmt.Fprintf(w, "%% group name rows cols nonzeros threads"); err != nil {
		return err
	}
	for _, alg := range artifactOrderings {
		fmt.Fprintf(w, " | %s: minnzpt maxnzpt meannzpt imbalance seconds maxgflops meangflops", alg)
	}
	fmt.Fprintln(w)
	for _, r := range s.Matrices {
		fmt.Fprintf(w, "%s %s %d %d %d %d", sanitize(r.Group), r.Name, r.Rows, r.Rows, r.NNZ, cores)
		for _, alg := range artifactOrderings {
			m, ok := r.Perf[mach][k][alg]
			if !ok {
				fmt.Fprintf(w, " - - - - - - -")
				continue
			}
			fmt.Fprintf(w, " %d %d %.1f %.4f %.6e %.3f %.3f",
				m.MinNNZ, m.MaxNNZ, m.MeanNNZ, m.Imbalance, m.Seconds, m.Gflops, m.Gflops)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if r == ' ' {
			r = '_'
		}
		out = append(out, r)
	}
	return string(out)
}
