package experiments

import (
	"bytes"
	"strings"
	"testing"

	"sparseorder/internal/gen"
	"sparseorder/internal/machine"
	"sparseorder/internal/perfprofile"
	"sparseorder/internal/reorder"
	"sparseorder/internal/stats"
)

// runTestStudy runs the study once at test scale and caches it for all
// assertions in this package.
var cachedStudy *StudyResult

func testStudy(t *testing.T) *StudyResult {
	t.Helper()
	if cachedStudy != nil {
		return cachedStudy
	}
	s, err := RunStudy(Config{Scale: gen.ScaleTest, Seed: 42})
	if err != nil {
		t.Fatalf("RunStudy: %v", err)
	}
	cachedStudy = s
	return s
}

func meanGeo(s *StudyResult, k machine.Kernel, alg reorder.Algorithm) float64 {
	var gs []float64
	for _, m := range s.Config.Machines {
		gs = append(gs, stats.GeoMean(s.Speedups(m.Name, k, alg)))
	}
	return stats.GeoMean(gs)
}

func TestStudyCoversEverything(t *testing.T) {
	s := testStudy(t)
	if len(s.Matrices) < 20 {
		t.Fatalf("study covered %d matrices", len(s.Matrices))
	}
	for _, r := range s.Matrices {
		if len(r.Perf) != 8 {
			t.Fatalf("%s evaluated on %d machines", r.Name, len(r.Perf))
		}
		for mach, byKernel := range r.Perf {
			for _, k := range []machine.Kernel{machine.Kernel1D, machine.Kernel2D} {
				if len(byKernel[k]) != 7 {
					t.Fatalf("%s/%s/%s has %d orderings", r.Name, mach, k, len(byKernel[k]))
				}
				for alg, m := range byKernel[k] {
					if m.Gflops <= 0 || m.Seconds <= 0 {
						t.Fatalf("%s/%s/%s/%s non-positive measurement", r.Name, mach, k, alg)
					}
				}
			}
		}
		if len(r.Features) != 7 {
			t.Fatalf("%s has %d feature rows", r.Name, len(r.Features))
		}
		for _, alg := range reorder.Algorithms {
			if r.ReorderSeconds[alg] < 0 {
				t.Fatalf("%s/%s negative reorder time", r.Name, alg)
			}
		}
	}
}

func TestOriginalSpeedupIsOne(t *testing.T) {
	s := testStudy(t)
	for _, r := range s.Matrices {
		if v := r.Speedup("Milan B", machine.Kernel1D, reorder.Original); v != 1 {
			t.Fatalf("%s: original speedup = %v", r.Name, v)
		}
	}
}

// TestFinding1SpeedupRange checks the paper's finding 1: extreme outliers
// exist but the typical (interquartile) speedup sits in a narrow band
// around 1.
func TestFinding1SpeedupRange(t *testing.T) {
	s := testStudy(t)
	for _, mc := range s.Config.Machines {
		for _, alg := range s.Config.Orderings {
			xs := s.Speedups(mc.Name, machine.Kernel1D, alg)
			box := stats.BoxStats(xs)
			if box.Q1 < 0.3 || box.Q3 > 2.5 {
				t.Errorf("%s/%s: interquartile range [%.2f, %.2f] implausibly wide",
					mc.Name, alg, box.Q1, box.Q3)
			}
			lo, hi := stats.MinMax(xs)
			if lo < 0.05 || hi > 40 {
				t.Errorf("%s/%s: speedups [%.2f, %.2f] outside the paper's extreme range",
					mc.Name, alg, lo, hi)
			}
		}
	}
}

// TestFinding2GPBest checks the paper's headline finding: graph
// partitioning gives the best geometric-mean 1D speedup, and the
// partitioning-based orderings beat the rest.
func TestFinding2GPBest(t *testing.T) {
	s := testStudy(t)
	gp := meanGeo(s, machine.Kernel1D, reorder.GP)
	for _, alg := range []reorder.Algorithm{reorder.RCM, reorder.AMD, reorder.ND, reorder.HP, reorder.Gray} {
		if g := meanGeo(s, machine.Kernel1D, alg); g >= gp {
			t.Errorf("1D geomean of %s (%.3f) >= GP (%.3f)", alg, g, gp)
		}
	}
	if gp < 1.05 {
		t.Errorf("GP geomean %.3f should show a clear gain", gp)
	}
	// GP also best for the 2D kernel (paper Table 4).
	gp2 := meanGeo(s, machine.Kernel2D, reorder.GP)
	for _, alg := range []reorder.Algorithm{reorder.AMD, reorder.ND, reorder.HP, reorder.Gray} {
		if g := meanGeo(s, machine.Kernel2D, alg); g >= gp2 {
			t.Errorf("2D geomean of %s (%.3f) >= GP (%.3f)", alg, g, gp2)
		}
	}
}

// TestGrayAndAMDSlowdown checks that Gray and AMD sit below 1 on the 1D
// kernel (paper Table 3) and that Gray improves under the 2D kernel
// (imbalance, its main failure mode, is removed there).
func TestGrayAndAMDSlowdown(t *testing.T) {
	s := testStudy(t)
	gray1 := meanGeo(s, machine.Kernel1D, reorder.Gray)
	if gray1 >= 1 {
		t.Errorf("Gray 1D geomean %.3f, want < 1", gray1)
	}
	if amd := meanGeo(s, machine.Kernel1D, reorder.AMD); amd >= 1 {
		t.Errorf("AMD 1D geomean %.3f, want < 1", amd)
	}
	gray2 := meanGeo(s, machine.Kernel2D, reorder.Gray)
	if gray2 <= gray1 {
		t.Errorf("Gray 2D geomean %.3f not above 1D %.3f", gray2, gray1)
	}
}

// TestFinding3CrossArchitectureConsistency checks the paper's finding 3:
// the per-ordering geometric means vary little across architectures.
func TestFinding3CrossArchitectureConsistency(t *testing.T) {
	s := testStudy(t)
	for _, alg := range s.Config.Orderings {
		var gs []float64
		for _, mc := range s.Config.Machines {
			gs = append(gs, stats.GeoMean(s.Speedups(mc.Name, machine.Kernel1D, alg)))
		}
		lo, hi := stats.MinMax(gs)
		if hi/lo > 1.35 {
			t.Errorf("%s: geomean varies %.3f-%.3f across machines (> 35%%)", alg, lo, hi)
		}
	}
}

// TestMedianSpeedupsRCMGPHP checks that RCM, GP and HP improve the median
// matrix (paper §4.2).
func TestMedianSpeedupsRCMGPHP(t *testing.T) {
	s := testStudy(t)
	for _, alg := range []reorder.Algorithm{reorder.RCM, reorder.GP, reorder.HP} {
		var pooled []float64
		for _, mach := range []string{"Milan B", "Ice Lake", "Hi1620"} {
			xs := s.Speedups(mach, machine.Kernel1D, alg)
			// Per-machine medians may dip marginally below 1 on our reduced
			// collection; allow a small tolerance.
			if med := stats.Quantile(xs, 0.5); med < 0.97 {
				t.Errorf("%s on %s: median 1D speedup %.3f < 0.97", alg, mach, med)
			}
			pooled = append(pooled, xs...)
		}
		if med := stats.Quantile(pooled, 0.5); med < 1 {
			t.Errorf("%s: pooled median 1D speedup %.3f < 1", alg, med)
		}
	}
}

// TestFinding5Fig5Shapes checks the paper's feature findings: RCM wins the
// bandwidth profile, GP wins the off-diagonal profile, and the SpMV-runtime
// profile ranks GP and HP first and second.
func TestFinding5Fig5Shapes(t *testing.T) {
	s := testStudy(t)
	profiles, err := Fig5Profiles(s)
	if err != nil {
		t.Fatal(err)
	}
	idx := func(alg reorder.Algorithm) int {
		for i, a := range allOrderings {
			if a == alg {
				return i
			}
		}
		return -1
	}
	bw := profiles["bandwidth"]
	rcmAt1 := bw[idx(reorder.RCM)].Value(1)
	for _, alg := range allOrderings {
		if alg == reorder.RCM {
			continue
		}
		if v := bw[idx(alg)].Value(1); v >= rcmAt1 {
			t.Errorf("bandwidth: %s at x=1 (%.2f) >= RCM (%.2f)", alg, v, rcmAt1)
		}
	}
	od := profiles["offdiag"]
	gpAt1 := od[idx(reorder.GP)].Value(1)
	for _, alg := range allOrderings {
		if alg == reorder.GP {
			continue
		}
		if v := od[idx(alg)].Value(1); v >= gpAt1 {
			t.Errorf("offdiag: %s at x=1 (%.2f) >= GP (%.2f)", alg, v, gpAt1)
		}
	}
	rt := profiles["spmv-runtime"]
	gpArea := perfprofile.AreaScore(&rt[idx(reorder.GP)], 2)
	for _, alg := range allOrderings {
		if alg == reorder.GP {
			continue
		}
		if a := perfprofile.AreaScore(&rt[idx(alg)], 2); a > gpArea {
			t.Errorf("runtime profile: %s area %.3f > GP %.3f", alg, a, gpArea)
		}
	}
}

// TestFig6FillShapes checks the fill-in findings: the fill-reducing
// orderings (AMD, ND) produce the least fill, and every reordering beats
// the scrambled originals in the median.
func TestFig6FillShapes(t *testing.T) {
	s := testStudy(t)
	medianFill := func(alg reorder.Algorithm) float64 {
		var xs []float64
		for _, r := range s.Matrices {
			if fr, ok := r.FillRatio[alg]; ok {
				xs = append(xs, fr)
			}
		}
		if len(xs) == 0 {
			t.Fatalf("no fill data for %s", alg)
		}
		return stats.Quantile(xs, 0.5)
	}
	amd, nd := medianFill(reorder.AMD), medianFill(reorder.ND)
	orig := medianFill(reorder.Original)
	for _, alg := range []reorder.Algorithm{reorder.Original, reorder.RCM, reorder.GP, reorder.HP} {
		m := medianFill(alg)
		if amd >= m || nd >= m {
			t.Errorf("fill: AMD %.2f / ND %.2f not below %s %.2f", amd, nd, alg, m)
		}
	}
	for _, alg := range []reorder.Algorithm{reorder.RCM, reorder.AMD, reorder.ND} {
		if m := medianFill(alg); m >= orig {
			t.Errorf("fill: %s median %.2f not below original %.2f", alg, m, orig)
		}
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	s := testStudy(t)
	if out := RenderFig2(s); !strings.Contains(out, "Milan B") || !strings.Contains(out, "median") {
		t.Error("Fig2 output malformed")
	}
	if out := RenderFig3(s); !strings.Contains(out, "2D") {
		t.Error("Fig3 output malformed")
	}
	if out := RenderTable3(s); !strings.Contains(out, "Mean") {
		t.Error("Table3 output malformed")
	}
	if out := RenderTable4(s); !strings.Contains(out, "Mean") {
		t.Error("Table4 output malformed")
	}
	out, err := RenderFig5(s)
	if err != nil || !strings.Contains(out, "offdiag") {
		t.Errorf("Fig5: %v", err)
	}
	if out := RenderFig6(s); !strings.Contains(out, "median") {
		t.Error("Fig6 output malformed")
	}
}

func TestRenderFig1(t *testing.T) {
	out, err := RenderFig1(Config{Scale: gen.ScaleTest, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"kmer_V1r_like", "com-amazon_like", "freescale2_like", "Milan B", "Ice Lake"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig1 missing %q", want)
		}
	}
	if lines := strings.Count(out, "x\n"); lines < 9 {
		t.Errorf("Fig1 has %d speedup rows, want 9", lines)
	}
}

func TestRenderFig4(t *testing.T) {
	out, err := RenderFig4(Config{Scale: gen.ScaleTest, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for class := 1; class <= 6; class++ {
		if !strings.Contains(out, "Class "+string(rune('0'+class))) {
			t.Errorf("Fig4 missing class %d", class)
		}
	}
	if !strings.Contains(out, "imb-1D") {
		t.Error("Fig4 missing imbalance rows")
	}
}

func TestTable5(t *testing.T) {
	if raceEnabled {
		t.Skip("host wall-clock timing test: skipped under -race (see race_enabled_test.go)")
	}
	rows, err := RunTable5(Config{Scale: gen.ScaleTest, Seed: 42, Repeats: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("Table 5 has %d rows, want 10", len(rows))
	}
	for _, row := range rows {
		if row.SpMVSeconds <= 0 {
			t.Errorf("%s: non-positive SpMV time", row.Name)
		}
		gray := row.ReorderSeconds[reorder.Gray]
		for _, alg := range []reorder.Algorithm{reorder.ND, reorder.HP} {
			if row.ReorderSeconds[alg] < gray {
				t.Errorf("%s: %s (%.4fs) faster than Gray (%.4fs)", row.Name, alg, row.ReorderSeconds[alg], gray)
			}
		}
	}
}

// TestFinding6ReorderingCost checks the paper's finding 6 in aggregate:
// Gray is the fastest reordering and RCM the second fastest, while HP and
// ND are among the slowest.
func TestFinding6ReorderingCost(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock reorder-cost ranking: race instrumentation skews relative timings (see race_enabled_test.go)")
	}
	s := testStudy(t)
	total := map[reorder.Algorithm]float64{}
	for _, r := range s.Matrices {
		for alg, sec := range r.ReorderSeconds {
			total[alg] += sec
		}
	}
	for _, alg := range reorder.Algorithms {
		t.Logf("%-4s study total %.3fs", alg, total[alg])
	}
	t.Logf("HP/GP %.3f, HP/ND %.3f", total[reorder.HP]/total[reorder.GP], total[reorder.HP]/total[reorder.ND])
	if total[reorder.Gray] >= total[reorder.RCM] {
		t.Errorf("Gray total %.3fs not below RCM %.3fs", total[reorder.Gray], total[reorder.RCM])
	}
	for _, alg := range []reorder.Algorithm{reorder.AMD, reorder.ND, reorder.GP, reorder.HP} {
		if total[reorder.RCM] >= total[alg] {
			t.Errorf("RCM total %.3fs not below %s %.3fs", total[reorder.RCM], alg, total[alg])
		}
	}
	slowest := reorder.RCM
	for _, alg := range reorder.Algorithms {
		if total[alg] > total[slowest] {
			slowest = alg
		}
	}
	if slowest != reorder.HP && slowest != reorder.ND {
		t.Errorf("slowest reordering is %s, expected HP or ND", slowest)
	}
}

func TestArtifactFile(t *testing.T) {
	s := testStudy(t)
	var buf bytes.Buffer
	if err := WriteArtifactFile(&buf, s, "Milan B", machine.Kernel1D); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(s.Matrices)+1 {
		t.Fatalf("artifact has %d lines, want %d", len(lines), len(s.Matrices)+1)
	}
	// 6 metadata fields + 7 orderings x 7 fields.
	fields := strings.Fields(lines[1])
	if len(fields) != 6+7*7 {
		t.Errorf("artifact row has %d fields, want %d", len(fields), 6+7*7)
	}
	if err := WriteArtifactFile(&buf, s, "bogus", machine.Kernel1D); err == nil {
		t.Error("accepted unknown machine")
	}
}

func TestRenderDenseCSRRef(t *testing.T) {
	out, err := RenderDenseCSRRef(Config{Scale: gen.ScaleTest, Seed: 1, Repeats: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Gflop/s") || !strings.Contains(out, "Milan B") {
		t.Errorf("dense reference output malformed:\n%s", out)
	}
}

func TestRenderTable5(t *testing.T) {
	if raceEnabled {
		t.Skip("host wall-clock timing test: skipped under -race (see race_enabled_test.go)")
	}
	out, err := RenderTable5(Config{Scale: gen.ScaleTest, Seed: 42, Repeats: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Break-even") || !strings.Contains(out, "SpMV") {
		t.Error("Table5 output malformed")
	}
}

func TestArtifactRoundTrip(t *testing.T) {
	s := testStudy(t)
	var buf bytes.Buffer
	if err := WriteArtifactFile(&buf, s, "Ice Lake", machine.Kernel1D); err != nil {
		t.Fatal(err)
	}
	rows, err := readArtifactFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(s.Matrices) {
		t.Fatalf("parsed %d rows, want %d", len(rows), len(s.Matrices))
	}
	for i, row := range rows {
		r := s.Matrices[i]
		if row.Name != r.Name || row.NNZ != r.NNZ {
			t.Fatalf("row %d metadata mismatch: %s/%d vs %s/%d", i, row.Name, row.NNZ, r.Name, r.NNZ)
		}
		for alg, got := range row.Perf {
			want := r.Perf["Ice Lake"][machine.Kernel1D][alg]
			if got.MinNNZ != want.MinNNZ || got.MaxNNZ != want.MaxNNZ {
				t.Fatalf("row %d %s thread nnz mismatch", i, alg)
			}
			if relDiff(got.Gflops, want.Gflops) > 1e-3 || relDiff(got.Seconds, want.Seconds) > 1e-3 {
				t.Fatalf("row %d %s perf mismatch: %+v vs %+v", i, alg, got, want)
			}
		}
	}
	// The geometric means recomputed from the file must match the study's
	// own aggregation to formatting precision.
	for _, alg := range reorder.Algorithms {
		fromFile := geoMeanFromArtifact(rows, alg)
		direct := stats.GeoMean(s.Speedups("Ice Lake", machine.Kernel1D, alg))
		if relDiff(fromFile, direct) > 1e-2 {
			t.Errorf("%s: artifact geomean %.4f vs direct %.4f", alg, fromFile, direct)
		}
	}
}

func relDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if b > m {
		m = b
	}
	if m == 0 {
		return 0
	}
	return d / m
}

func TestReadArtifactRejectsGarbage(t *testing.T) {
	if _, err := readArtifactFile(strings.NewReader("too few fields\n")); err == nil {
		t.Error("accepted short row")
	}
	bad := "g n 1 1 1 1" + strings.Repeat(" x", 49) + "\n"
	if _, err := readArtifactFile(strings.NewReader(bad)); err == nil {
		t.Error("accepted non-numeric row")
	}
}

func TestRenderFindingsAllPass(t *testing.T) {
	if raceEnabled {
		t.Skip("finding 6 ranks wall-clock reorder costs, which race instrumentation skews (see race_enabled_test.go)")
	}
	s := testStudy(t)
	out, err := RenderFindings(s)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(out, "[PASS]") != 6 {
		t.Errorf("not all findings reproduced:\n%s", out)
	}
}

func TestGeoMeanTableShape(t *testing.T) {
	s := testStudy(t)
	table, machines, algs := GeoMeanTable(s, machine.Kernel1D)
	if len(machines) != 8 || len(algs) != 6 {
		t.Fatalf("table over %d machines x %d algs", len(machines), len(algs))
	}
	for i := range table {
		if len(table[i]) != len(algs)+1 {
			t.Fatalf("row %d has %d columns", i, len(table[i]))
		}
		for j, v := range table[i] {
			if v <= 0 || v > 10 {
				t.Fatalf("geomean [%d][%d] = %v implausible", i, j, v)
			}
		}
	}
}

func TestFig1ContainsPatterns(t *testing.T) {
	out, err := RenderFig1(Config{Scale: gen.ScaleTest, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "original") || !strings.Contains(out, "+----") {
		t.Error("Fig1 missing sparsity-pattern blocks")
	}
}

func TestGnuplotWriters(t *testing.T) {
	s := testStudy(t)
	var dat bytes.Buffer
	if err := WriteSpeedupDat(&dat, s, machine.Kernel1D); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(dat.String()), "\n")
	// Header + 8 machines x 6 orderings rows.
	if len(lines) != 1+8*6 {
		t.Fatalf("dat file has %d lines, want %d", len(lines), 1+8*6)
	}
	for _, l := range lines[1:] {
		if len(strings.Fields(l)) != 7 {
			t.Fatalf("dat row %q malformed", l)
		}
	}
	var gp bytes.Buffer
	if err := WriteSpeedupGnuplot(&gp, "fig2.dat", "fig2.png", "t"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(gp.String(), "candlesticks") {
		t.Error("gnuplot script missing candlesticks plot")
	}
}
