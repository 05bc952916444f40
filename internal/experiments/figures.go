package experiments

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"sparseorder/internal/gen"
	"sparseorder/internal/machine"
	"sparseorder/internal/perfprofile"
	"sparseorder/internal/reorder"
	"sparseorder/internal/sparse"
	"sparseorder/internal/spmv"
	"sparseorder/internal/spy"
	"sparseorder/internal/stats"
)

// allOrderings is the column order used throughout the paper's tables.
var allOrderings = reorder.AllOrderings

// RenderFig1 reproduces Figure 1: SpMV speedup (1D kernel) of RCM, ND and
// GP over the original ordering for the three showcase matrices, on the
// Milan B and Ice Lake machine models.
func RenderFig1(cfg Config) (string, error) {
	cfg = cfg.withDefaults()
	milan, _ := machine.ByName("Milan B")
	ice, _ := machine.ByName("Ice Lake")
	cfg.Machines = []machine.Machine{milan, ice}
	cfg.Orderings = []reorder.Algorithm{reorder.RCM, reorder.ND, reorder.GP}

	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1: sparsity patterns and SpMV speedup over original ordering (1D kernel)\n")
	for _, m := range gen.Fig1Set(cfg.Scale, cfg.Seed) {
		r, err := EvaluateMatrix(m, cfg)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "\n%s (%d rows, %d nnz)\n", m.Name, m.A.Rows, m.A.NNZ())
		labels := []string{"original"}
		mats := []*sparse.CSR{m.A}
		for _, alg := range cfg.Orderings {
			bm, _, err := reorder.Apply(alg, m.A, reorder.Options{Seed: cfg.Seed})
			if err != nil {
				return "", err
			}
			labels = append(labels, string(alg))
			mats = append(mats, bm)
		}
		b.WriteString(spy.SideBySide(labels, mats, 16))
		fmt.Fprintf(&b, "%-10s %10s %10s\n", "ordering", "Milan B", "Ice Lake")
		for _, alg := range cfg.Orderings {
			fmt.Fprintf(&b, "%-10s %9.2fx %9.2fx\n", alg,
				r.Speedup("Milan B", machine.Kernel1D, alg),
				r.Speedup("Ice Lake", machine.Kernel1D, alg))
		}
	}
	return b.String(), nil
}

// renderSpeedupBoxes renders the Figure 2/3 box-plot data: one row per
// (machine, ordering) with the five-number summary of the speedup
// distribution over the collection.
func renderSpeedupBoxes(s *StudyResult, k machine.Kernel, title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-10s %-6s %8s %8s %8s %8s %8s %5s\n",
		"machine", "order", "whisk-lo", "q1", "median", "q3", "whisk-hi", "outl")
	for _, mc := range s.Config.Machines {
		for _, alg := range s.Config.Orderings {
			xs := s.Speedups(mc.Name, k, alg)
			box := stats.BoxStats(xs)
			fmt.Fprintf(&b, "%-10s %-6s %8.3f %8.3f %8.3f %8.3f %8.3f %5d\n",
				mc.Name, alg, box.WhiskerLo, box.Q1, box.Median, box.Q3, box.WhiskerHi, box.Outliers)
		}
	}
	return b.String()
}

// RenderFig2 reproduces Figure 2 (1D speedup distributions).
func RenderFig2(s *StudyResult) string {
	return renderSpeedupBoxes(s, machine.Kernel1D,
		"Figure 2: speedup of SpMV using the 1D algorithm after reordering (box statistics)")
}

// RenderFig3 reproduces Figure 3 (2D speedup distributions).
func RenderFig3(s *StudyResult) string {
	return renderSpeedupBoxes(s, machine.Kernel2D,
		"Figure 3: speedup of the nonzero-balanced (2D) SpMV kernel after reordering (box statistics)")
}

// GeoMeanTable computes the Table 3/4 grid: geometric-mean speedup per
// (machine, ordering) plus row and column means.
func GeoMeanTable(s *StudyResult, k machine.Kernel) ([][]float64, []string, []string) {
	machines := make([]string, len(s.Config.Machines))
	for i, m := range s.Config.Machines {
		machines[i] = m.Name
	}
	algs := make([]string, len(s.Config.Orderings))
	for i, a := range s.Config.Orderings {
		algs[i] = string(a)
	}
	table := make([][]float64, len(machines))
	for i, mach := range machines {
		table[i] = make([]float64, len(algs)+1)
		var rowVals []float64
		for j, alg := range s.Config.Orderings {
			g := stats.GeoMean(s.Speedups(mach, k, alg))
			table[i][j] = g
			rowVals = append(rowVals, g)
		}
		table[i][len(algs)] = stats.GeoMean(rowVals)
	}
	return table, machines, algs
}

func renderGeoMeanTable(s *StudyResult, k machine.Kernel, title string) string {
	table, machines, algs := GeoMeanTable(s, k)
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-10s", k.String())
	for _, a := range algs {
		fmt.Fprintf(&b, " %7s", a)
	}
	fmt.Fprintf(&b, " %7s\n", "Mean")
	colSums := make([]float64, len(algs)+1)
	for i, mach := range machines {
		fmt.Fprintf(&b, "%-10s", mach)
		for j := range table[i] {
			fmt.Fprintf(&b, " %7.3f", table[i][j])
			colSums[j] += table[i][j]
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "%-10s", "Mean")
	for _, sum := range colSums {
		fmt.Fprintf(&b, " %7.3f", sum/float64(len(machines)))
	}
	fmt.Fprintln(&b)
	return b.String()
}

// RenderTable3 reproduces Table 3 (geometric-mean 1D speedups).
func RenderTable3(s *StudyResult) string {
	return renderGeoMeanTable(s, machine.Kernel1D,
		"Table 3: geometric mean of 1D SpMV speedups over the original ordering")
}

// RenderTable4 reproduces Table 4 (geometric-mean 2D speedups).
func RenderTable4(s *StudyResult) string {
	return renderGeoMeanTable(s, machine.Kernel2D,
		"Table 4: geometric mean of 2D SpMV speedups over the original ordering")
}

// fig4Machines picks the three platforms of Figure 4: one AMD, one Intel,
// one ARM.
func fig4Machines() []machine.Machine {
	var out []machine.Machine
	for _, name := range []string{"Milan B", "Ice Lake", "Hi1620"} {
		m, _ := machine.ByName(name)
		out = append(out, m)
	}
	return out
}

// RenderFig4 reproduces Figure 4: for one representative matrix per
// behaviour class, 1D and 2D speedups of every ordering on three
// platforms, alongside the 1D load-imbalance factors that explain them.
func RenderFig4(cfg Config) (string, error) {
	cfg = cfg.withDefaults()
	cfg.Machines = fig4Machines()

	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: per-class analysis (speedups and 1D imbalance factors)\n")
	for class, m := range gen.Fig4Set(cfg.Scale, cfg.Seed) {
		r, err := EvaluateMatrix(m, cfg)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "\nClass %d: %s (%d rows, %d nnz)\n", class+1, m.Name, m.A.Rows, m.A.NNZ())
		fmt.Fprintf(&b, "%-10s %-8s", "machine", "kernel")
		for _, alg := range allOrderings {
			fmt.Fprintf(&b, " %7s", alg)
		}
		fmt.Fprintln(&b)
		for _, mc := range cfg.Machines {
			for _, k := range []machine.Kernel{machine.Kernel1D, machine.Kernel2D} {
				fmt.Fprintf(&b, "%-10s %-8s", mc.Name, "spd-"+k.String())
				for _, alg := range allOrderings {
					fmt.Fprintf(&b, " %6.2fx", r.Speedup(mc.Name, k, alg))
				}
				fmt.Fprintln(&b)
			}
			fmt.Fprintf(&b, "%-10s %-8s", mc.Name, "imb-1D")
			for _, alg := range allOrderings {
				fmt.Fprintf(&b, " %7.2f", r.Perf[mc.Name][machine.Kernel1D][alg].Imbalance)
			}
			fmt.Fprintln(&b)
		}
	}
	return b.String(), nil
}

// Fig5Profiles builds the four Dolan-Moré performance-profile cost tables
// of Figure 5 — bandwidth, profile, off-diagonal nonzero count and SpMV
// runtime on Milan B — across all orderings including Original.
func Fig5Profiles(s *StudyResult) (map[string][]perfprofile.Profile, error) {
	methods := make([]string, len(allOrderings))
	for i, a := range allOrderings {
		methods[i] = string(a)
	}
	kinds := map[string]func(r *MatrixResult, alg reorder.Algorithm) float64{
		"bandwidth": func(r *MatrixResult, alg reorder.Algorithm) float64 {
			return float64(r.Features[alg].Bandwidth)
		},
		"profile": func(r *MatrixResult, alg reorder.Algorithm) float64 {
			return float64(r.Features[alg].Profile)
		},
		"offdiag": func(r *MatrixResult, alg reorder.Algorithm) float64 {
			return float64(r.Features[alg].OffDiagNNZ)
		},
		"spmv-runtime": func(r *MatrixResult, alg reorder.Algorithm) float64 {
			return r.Perf["Milan B"][machine.Kernel1D][alg].Seconds
		},
	}
	out := map[string][]perfprofile.Profile{}
	for kind, costOf := range kinds {
		var costs [][]float64
		for _, r := range s.Matrices {
			row := make([]float64, len(allOrderings))
			for j, alg := range allOrderings {
				row[j] = costOf(r, alg)
			}
			costs = append(costs, row)
		}
		profiles, err := perfprofile.Compute(methods, costs)
		if err != nil {
			return nil, err
		}
		out[kind] = profiles
	}
	return out, nil
}

// RenderFig5 reproduces Figure 5 as tables of profile values at selected
// performance-ratio points.
func RenderFig5(s *StudyResult) (string, error) {
	profiles, err := Fig5Profiles(s)
	if err != nil {
		return "", err
	}
	xs := []float64{1.0, 1.1, 1.25, 1.5, 2, 3, 5, 10}
	var kinds []string
	for k := range profiles {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: performance profiles (fraction of matrices within factor x of the best)\n")
	for _, kind := range kinds {
		fmt.Fprintf(&b, "\n[%s]\n%-10s", kind, "x")
		for _, alg := range allOrderings {
			fmt.Fprintf(&b, " %7s", alg)
		}
		fmt.Fprintln(&b)
		rows := perfprofile.Table(profiles[kind], xs)
		for i, x := range xs {
			fmt.Fprintf(&b, "%-10.2f", x)
			for _, v := range rows[i] {
				fmt.Fprintf(&b, " %7.2f", v)
			}
			fmt.Fprintln(&b)
		}
	}
	return b.String(), nil
}

// symmetricOrderings are the orderings eligible for Cholesky (Figure 6):
// Gray is excluded because it does not preserve symmetry.
var symmetricOrderings = []reorder.Algorithm{
	reorder.Original, reorder.RCM, reorder.AMD, reorder.ND, reorder.GP, reorder.HP,
}

// RenderFig6 reproduces Figure 6: box statistics of the Cholesky fill
// ratio nnz(L)/nnz(A) over the SPD subset, per symmetric ordering.
func RenderFig6(s *StudyResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: Cholesky fill ratio nnz(L)/nnz(A) over the SPD subset (box statistics)\n")
	fmt.Fprintf(&b, "%-10s %5s %8s %8s %8s %8s %8s\n", "order", "n", "min", "q1", "median", "q3", "max")
	for _, alg := range symmetricOrderings {
		var xs []float64
		for _, r := range s.Matrices {
			if fr, ok := r.FillRatio[alg]; ok {
				xs = append(xs, fr)
			}
		}
		box := stats.BoxStats(xs)
		fmt.Fprintf(&b, "%-10s %5d %8.2f %8.2f %8.2f %8.2f %8.2f\n",
			alg, box.N, box.Min, box.Q1, box.Median, box.Q3, box.Max)
	}
	return b.String()
}

// Table5Row is one row of the reordering-overhead table.
type Table5Row struct {
	Name           string
	ReorderSeconds map[reorder.Algorithm]float64
	// ReorderPhases is the per-phase breakdown of ReorderSeconds (graph
	// construction, ordering, permutation application) at the configured
	// ReorderWorkers.
	ReorderPhases map[reorder.Algorithm]reorder.PhaseTimings
	SpMVSeconds   float64 // one host 1D SpMV iteration (best of Repeats)
	BreakEven     map[reorder.Algorithm]float64
}

// RunTable5 reproduces Table 5: reordering wall-clock time for the ten
// large matrices plus the time of a single host SpMV iteration, and the
// derived break-even iteration counts of §4.7 (how many SpMV iterations
// amortise the reordering, using the model speedup on Ice Lake).
func RunTable5(cfg Config) ([]Table5Row, error) {
	cfg = cfg.withDefaults()
	ice, _ := machine.ByName("Ice Lake")
	cfg.Machines = []machine.Machine{ice}
	var rows []Table5Row
	for _, m := range gen.LargeSet(cfg.Scale, cfg.Seed) {
		cfg.Logf("table 5: %s (%d rows, %d nnz)", m.Name, m.A.Rows, m.A.NNZ())
		r, err := EvaluateMatrix(m, cfg)
		if err != nil {
			return nil, err
		}
		row := Table5Row{
			Name:           m.Name,
			ReorderSeconds: r.ReorderSeconds,
			ReorderPhases:  r.ReorderPhases,
			BreakEven:      map[reorder.Algorithm]float64{},
		}
		// Host wall-clock for one 1D SpMV iteration: best of Repeats runs.
		// Each timed iteration also lands in the spmv/host1d histogram so a
		// live scrape shows the host-kernel share of a Table 5 run.
		hostPh := cfg.Obs.Phase("spmv/host1d")
		x := make([]float64, m.A.Cols)
		for i := range x {
			x[i] = 1
		}
		y := make([]float64, m.A.Rows)
		secs, err := TimeRuns(cfg.Repeats, func() error { return spmv.Mul1D(m.A, x, y, cfg.HostThreads) })
		if err != nil {
			return nil, fmt.Errorf("experiments: table 5 %s: %w", m.Name, err)
		}
		for _, el := range secs {
			hostPh.Observe(el)
		}
		best := slices.Min(secs)
		row.SpMVSeconds = best
		// Break-even (paper §4.7): iterations = reorderTime /
		// (spmvTime·(1-1/speedup)); only meaningful for speedup > 1.
		for _, alg := range cfg.Orderings {
			sp := r.Speedup("Ice Lake", machine.Kernel1D, alg)
			if sp > 1 {
				row.BreakEven[alg] = row.ReorderSeconds[alg] / (best * (1 - 1/sp))
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderTable5 formats the RunTable5 output.
func RenderTable5(cfg Config) (string, error) {
	cfg = cfg.withDefaults()
	rows, err := RunTable5(cfg)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table 5: time (seconds) to reorder a matrix; host SpMV iteration time for comparison\n")
	fmt.Fprintf(&b, "%-18s", "matrix")
	for _, alg := range cfg.Orderings {
		fmt.Fprintf(&b, " %9s", alg)
	}
	fmt.Fprintf(&b, " %10s\n", "SpMV")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-18s", row.Name)
		for _, alg := range cfg.Orderings {
			fmt.Fprintf(&b, " %9.3f", row.ReorderSeconds[alg])
		}
		fmt.Fprintf(&b, " %10.6f\n", row.SpMVSeconds)
	}
	fmt.Fprintf(&b, "\nReordering-time breakdown (graph build / ordering / permute seconds, reorder workers=%d;\nsee BENCH_reorder.json for the serial-vs-parallel comparison)\n", cfg.ReorderWorkers)
	fmt.Fprintf(&b, "%-18s %-8s", "matrix", "phase")
	for _, alg := range cfg.Orderings {
		fmt.Fprintf(&b, " %9s", alg)
	}
	fmt.Fprintln(&b)
	for _, row := range rows {
		for _, phase := range []struct {
			name string
			get  func(reorder.PhaseTimings) float64
		}{
			{"graph", func(t reorder.PhaseTimings) float64 { return t.GraphSeconds }},
			{"order", func(t reorder.PhaseTimings) float64 { return t.OrderSeconds }},
			{"permute", func(t reorder.PhaseTimings) float64 { return t.PermuteSeconds }},
		} {
			fmt.Fprintf(&b, "%-18s %-8s", row.Name, phase.name)
			for _, alg := range cfg.Orderings {
				fmt.Fprintf(&b, " %9.3f", phase.get(row.ReorderPhases[alg]))
			}
			fmt.Fprintln(&b)
		}
	}
	fmt.Fprintf(&b, "\nBreak-even SpMV iterations (model speedup on Ice Lake, §4.7; '-' = no speedup)\n")
	fmt.Fprintf(&b, "%-18s", "matrix")
	for _, alg := range cfg.Orderings {
		fmt.Fprintf(&b, " %9s", alg)
	}
	fmt.Fprintln(&b)
	for _, row := range rows {
		fmt.Fprintf(&b, "%-18s", row.Name)
		for _, alg := range cfg.Orderings {
			if be, ok := row.BreakEven[alg]; ok {
				fmt.Fprintf(&b, " %9.0f", be)
			} else {
				fmt.Fprintf(&b, " %9s", "-")
			}
		}
		fmt.Fprintln(&b)
	}
	return b.String(), nil
}

// RenderDenseCSRRef reproduces the §4.2 reference experiment: SpMV on a
// tall-and-skinny dense matrix in CSR format, reported for the host (wall
// clock) and the Milan B model.
func RenderDenseCSRRef(cfg Config) (string, error) {
	cfg = cfg.withDefaults()
	f := cfg.Scale.Factor()
	a := gen.TallSkinnyDense(2400*f, 100*f, cfg.Seed)
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = 1
	}
	y := make([]float64, a.Rows)
	secs, err := TimeRuns(cfg.Repeats, func() error { return spmv.Mul1D(a, x, y, cfg.HostThreads) })
	if err != nil {
		return "", err
	}
	best := slices.Min(secs)
	milan, _ := machine.ByName("Milan B")
	est := machine.EstimateSpMV(a, milan, machine.Kernel1D)
	var b strings.Builder
	fmt.Fprintf(&b, "Dense tall-skinny CSR reference (§4.2): %dx%d, %d nnz\n", a.Rows, a.Cols, a.NNZ())
	fmt.Fprintf(&b, "host (%d threads): %.4gs, %.1f Gflop/s\n", cfg.HostThreads, best, spmv.Gflops(a.NNZ(), best))
	fmt.Fprintf(&b, "Milan B model:     %.4gs, %.1f Gflop/s (%.0f%% of 12-byte/nnz bandwidth bound)\n",
		est.Seconds, est.Gflops, 100*est.Gflops/(2*milan.BandwidthGB/12))
	return b.String(), nil
}
