package reorder

import (
	"fmt"
	"math"
	"testing"

	"sparseorder/internal/cholesky"
	"sparseorder/internal/gen"
	"sparseorder/internal/graph"
	"sparseorder/internal/hypergraph"
	"sparseorder/internal/partition"
	"sparseorder/internal/sparse"
)

// gateParts are the GP part counts of the study's machines.
var gateParts = []int{16, 32, 48, 64, 72, 128}

// partitionGateSeed seeds both the collection and the partitioners.
const partitionGateSeed = 42

// hpCutNetAt128 is the cut-net value of HP's 128-part partition.
func hpCutNetAt128(t *testing.T, a *sparse.CSR) int {
	t.Helper()
	h := hypergraph.ColumnNet(a)
	part, err := hypergraph.KWay(h, 128, hypergraph.Options{Seed: partitionGateSeed, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return hypergraph.CutNet(h, part)
}

// gpEdgeCuts are GP's edge cuts of the graph of A+Aᵀ at each part count
// in parts.
func gpEdgeCuts(t *testing.T, a *sparse.CSR, parts []int) []int {
	t.Helper()
	g, err := graph.FromMatrixSymmetrizedWorkers(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	assign, err := partition.KWayMulti(g, parts,
		partition.Options{Seed: partitionGateSeed, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cuts := make([]int, len(parts))
	for i, part := range assign {
		cuts[i] = partition.EdgeCut(g, part)
	}
	return cuts
}

// ndFill is nnz(L)/nnz(A) of the ND-ordered matrix.
func ndFill(t *testing.T, a *sparse.CSR) float64 {
	t.Helper()
	b, _, err := Apply(ND, a, Options{Seed: partitionGateSeed, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	fr, err := cholesky.FillRatio(b)
	if err != nil {
		t.Fatal(err)
	}
	return fr
}

// The baselines below were measured before the FM passes stopped early
// (collection and partitioner seed 42, 1 worker).

// hpBaselineCut is HP's cut-net at 128 parts.
var hpBaselineCut = map[string]int{
	"grid2d":            1177,
	"grid3d":            1572,
	"band":              1555,
	"blockfem":          1972,
	"road":              1100,
	"mixed3d_a":         1678,
	"mixed3d_b":         1649,
	"cfd_dense":         399,
	"band_wide":         1200,
	"road_b":            1510,
	"blockfem_b":        2055,
	"smallworld2d":      1256,
	"smallworld3d":      1580,
	"grid2d_perm":       1195,
	"grid3d_perm":       1585,
	"band_perm":         1561,
	"road_perm":         1137,
	"kron":              392,
	"kron_b":            230,
	"clustered_a":       2376,
	"clustered_b":       2355,
	"clustered_c":       2333,
	"smallworld2d_perm": 1281,
	"smallworld3d_perm": 1572,
	"kmer":              2222,
	"circuit":           1823,
	"kron_c":            659,
	"powernet_perm":     1738,
}

// gpBaselineCut is GP's edge cut at each of gateParts.
var gpBaselineCut = map[string][6]int{
	"grid2d":            {265, 463, 623, 717, 757, 1100},
	"grid3d":            {750, 1113, 1396, 1660, 1771, 2346},
	"band":              {479, 991, 1516, 2001, 2200, 4190},
	"blockfem":          {2629, 6192, 7958, 9428, 9665, 11889},
	"road":              {157, 267, 431, 536, 663, 1100},
	"mixed3d_a":         {2924, 3939, 4805, 5363, 5716, 7101},
	"mixed3d_b":         {3922, 5359, 6569, 7314, 7669, 9422},
	"cfd_dense":         {481, 582, 643, 684, 704, 805},
	"band_wide":         {1713, 3539, 5467, 6675, 7290, 8754},
	"road_b":            {413, 772, 1012, 1355, 1517, 2408},
	"blockfem_b":        {1425, 2422, 6233, 7163, 8518, 10718},
	"smallworld2d":      {639, 849, 1002, 1096, 1171, 1431},
	"smallworld3d":      {1000, 1387, 1661, 1919, 2029, 2610},
	"grid2d_perm":       {280, 480, 624, 736, 773, 1070},
	"grid3d_perm":       {754, 1116, 1311, 1628, 1746, 2361},
	"band_perm":         {444, 948, 1446, 1997, 2222, 4457},
	"road_perm":         {132, 320, 437, 613, 724, 1229},
	"kron":              {2060, 2322, 2444, 2497, 2517, 2610},
	"kron_b":            {1790, 1935, 1999, 2022, 2033, 2081},
	"clustered_a":       {4692, 6941, 7788, 9712, 10073, 11994},
	"clustered_b":       {3438, 3953, 5313, 4475, 6706, 10311},
	"clustered_c":       {2310, 2488, 3436, 2688, 3904, 2884},
	"smallworld2d_perm": {649, 821, 990, 1112, 1153, 1468},
	"smallworld3d_perm": {1041, 1429, 1727, 2012, 2081, 2612},
	"kmer":              {2411, 2686, 2843, 2933, 3004, 3224},
	"circuit":           {3463, 3834, 4047, 4165, 4278, 4501},
	"kron_c":            {2725, 3161, 3394, 3469, 3572, 3682},
	"powernet_perm":     {3360, 3855, 4211, 4704, 4870, 5913},
}

// ndBaselineFill is ND's nnz(L)/nnz(A) on the SPD matrices.
var ndBaselineFill = map[string]float64{
	"grid2d":      3.748852,
	"grid3d":      9.223024,
	"band":        1.395284,
	"blockfem":    2.982565,
	"road":        1.090914,
	"mixed3d_a":   5.064472,
	"mixed3d_b":   4.481040,
	"band_wide":   2.138891,
	"road_b":      1.507382,
	"blockfem_b":  2.474630,
	"grid2d_perm": 3.544898,
	"grid3d_perm": 8.895833,
	"band_perm":   1.417036,
	"road_perm":   1.088332,
	"clustered_a": 21.575746,
	"clustered_b": 16.343152,
	"clustered_c": 15.513267,
	"kmer":        27.804124,
}

// meshBaselineGPCut128 and meshBaselineNDFill are the scrambled 32³
// mesh's GP/128 edge cut and ND fill.
const meshBaselineGPCut128 = 13725

const meshBaselineNDFill = 37.1587

// qualityFamily accumulates one family of got/baseline ratios and
// reports the values above a per-value bound.
type qualityFamily struct {
	name     string
	maxRatio float64 // bound on any single value
	logSum   float64
	worst    float64 // largest single ratio
	n        int
}

func (f *qualityFamily) add(t *testing.T, label string, got, base float64) {
	t.Helper()
	r := got / base
	if r > f.maxRatio {
		t.Errorf("%s %s: %g is %.4f× the baseline %g, want ≤ %.2f×", f.name, label, got, r, base, f.maxRatio)
	}
	f.logSum += math.Log(r)
	f.worst = max(f.worst, r)
	f.n++
}

// checkGeomean fails when the family's geometric mean exceeds 1.01× the
// baseline.
func (f *qualityFamily) checkGeomean(t *testing.T) {
	t.Helper()
	if f.n == 0 {
		t.Fatalf("%s: no values compared", f.name)
	}
	geo := math.Exp(f.logSum / float64(f.n))
	t.Logf("%s: geometric mean %.4f× the baseline over %d values, worst %.4f×", f.name, geo, f.n, f.worst)
	if geo > 1.01 {
		t.Errorf("%s: geometric mean is %.4f× the baseline, want ≤ 1.01×", f.name, geo)
	}
}

// TestPartitionQualityGate holds the partitioners' quality against values
// frozen before the FM passes gained their early stop (collection and
// partitioner seed 42, 1 worker): HP's cut-net at 128 parts on every
// ScaleTest matrix, GP's edge cut at the study's six part counts, and
// ND's Cholesky fill on the SPD matrices. Each family's geometric mean
// may be at most 1% worse; no single HP value more than 5% worse and
// no single GP or ND value more than 8% worse. On the scrambled 32³ mesh
// the 128-part GP cut may be at most 5% worse and the ND fill at most 1%.
func TestPartitionQualityGate(t *testing.T) {
	hp := qualityFamily{name: "HP cut-net/128", maxRatio: 1.05}
	gp := qualityFamily{name: "GP edge cut", maxRatio: 1.08}
	nd := qualityFamily{name: "ND fill", maxRatio: 1.08}
	coll := gen.Collection(gen.ScaleTest, partitionGateSeed)
	if len(coll) != len(hpBaselineCut) || len(coll) != len(gpBaselineCut) {
		t.Fatalf("collection has %d matrices, baselines cover %d (HP) and %d (GP)",
			len(coll), len(hpBaselineCut), len(gpBaselineCut))
	}
	spd := 0
	for _, m := range coll {
		hpBase, ok := hpBaselineCut[m.Name]
		gpBase, ok2 := gpBaselineCut[m.Name]
		if !ok || !ok2 {
			t.Fatalf("no baseline for %s", m.Name)
		}
		hp.add(t, m.Name, float64(hpCutNetAt128(t, m.A)), float64(hpBase))
		for i, cut := range gpEdgeCuts(t, m.A, gateParts) {
			gp.add(t, fmt.Sprintf("%s/%d", m.Name, gateParts[i]), float64(cut), float64(gpBase[i]))
		}
		if m.SPD {
			base, ok := ndBaselineFill[m.Name]
			if !ok {
				t.Fatalf("no ND baseline fill for SPD matrix %s", m.Name)
			}
			spd++
			nd.add(t, m.Name, ndFill(t, m.A), base)
		}
	}
	if spd != len(ndBaselineFill) {
		t.Fatalf("collection has %d SPD matrices, ND baseline covers %d", spd, len(ndBaselineFill))
	}
	hp.checkGeomean(t)
	gp.checkGeomean(t)
	nd.checkGeomean(t)

	mesh := gen.Scramble(gen.Grid3D(32, 32, 32), partitionGateSeed)
	cut := gpEdgeCuts(t, mesh, []int{128})[0]
	t.Logf("scrambled 32³ mesh: GP/128 cut %d (baseline %d)", cut, meshBaselineGPCut128)
	if float64(cut) > 1.05*meshBaselineGPCut128 {
		t.Errorf("scrambled 32³ mesh: GP/128 cut %d more than 5%% above baseline %d", cut, meshBaselineGPCut128)
	}
	fill := ndFill(t, mesh)
	t.Logf("scrambled 32³ mesh: ND fill %.4f (baseline %.4f)", fill, meshBaselineNDFill)
	if fill > 1.01*meshBaselineNDFill {
		t.Errorf("scrambled 32³ mesh: ND fill %.4f more than 1%% above baseline %.4f", fill, meshBaselineNDFill)
	}
}
