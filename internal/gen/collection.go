package gen

import (
	"fmt"

	"sparseorder/internal/sparse"
)

// Matrix is one named member of the synthetic collection, carrying the
// metadata the study records for SuiteSparse matrices.
type Matrix struct {
	Name  string
	Group string // application-domain analogue
	Kind  string // structural class
	SPD   bool   // symmetric positive definite (eligible for Figure 6)
	A     *sparse.CSR
}

// Scale selects the size of the generated collection.
type Scale int

// Collection scales: Test keeps everything tiny for unit tests, Study is
// the default size for regenerating the paper's aggregate experiments on a
// single machine, Large is used for the reordering-overhead table.
const (
	ScaleTest Scale = iota
	ScaleStudy
	ScaleLarge
)

// String names the scale with the vocabulary of cmd/study's -scale flag.
func (s Scale) String() string {
	switch s {
	case ScaleTest:
		return "test"
	case ScaleStudy:
		return "study"
	case ScaleLarge:
		return "large"
	}
	return fmt.Sprintf("Scale(%d)", int(s))
}

// ParseScale is the inverse of Scale.String: it maps "test", "study" and
// "large" to their scales and rejects any other name.
func ParseScale(name string) (Scale, error) {
	for _, s := range []Scale{ScaleTest, ScaleStudy, ScaleLarge} {
		if name == s.String() {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown scale %q (want test, study or large)", name)
}

// Factor returns the linear size multiplier of the scale; generators scale
// their dimensions by it.
func (s Scale) Factor() int { return s.factor() }

func (s Scale) factor() int {
	switch s {
	case ScaleTest:
		return 1
	case ScaleStudy:
		return 4
	default:
		return 10
	}
}

// Collection generates the deterministic synthetic matrix collection that
// stands in for the study's 490 SuiteSparse matrices. Every structural
// class of the study is represented, in both naturally ordered and
// scrambled form where that distinction matters (scrambling emulates
// matrices that arrive without a useful ordering).
func Collection(scale Scale, seed int64) []Matrix {
	f := scale.factor()
	n2 := 40 * f // 2D grid side
	n3 := 12 * f // 3D grid side
	var ms []Matrix
	add := func(name, group, kind string, spd bool, a *sparse.CSR) {
		ms = append(ms, Matrix{Name: name, Group: group, Kind: kind, SPD: spd, A: a})
	}

	// Naturally well-ordered matrices: the majority of real collections
	// arrive this way, so reordering is roughly neutral for them.
	g2 := Grid2D(n2, n2)
	add("grid2d", "2D/3D mesh", "fem-2d", true, g2)
	g3 := Grid3D(n3, n3, n3)
	add("grid3d", "structural", "fem-3d", true, g3)
	b := Banded(1600*f, 8+2*f, 0.6, seed+3)
	add("band", "1D PDE", "banded", true, b)
	bc := BlockCoupled(20*f, 100, 30, seed+9)
	add("blockfem", "structural", "block-coupled", true, bc)
	geo := RandomGeometric(2500*f, radiusFor(2500*f, 6), seed+6)
	add("road", "road network", "geometric", true, geo)
	add("mixed3d_a", "higher-order FEM", "mixed-stencil", true, MixedStencil3D(n3, n3, n3, 0.3, seed+16))
	add("mixed3d_b", "higher-order FEM", "mixed-stencil", true, MixedStencil3D(n3+2, n3, n3-2, 0.5, seed+17))
	hv := WithDenseRows(Grid2D(n2/2, n2/2), 4+f, 0.15, seed+11)
	add("cfd_dense", "CFD", "dense-rows", false, hv)
	add("band_wide", "1D PDE", "banded", true, Banded(1200*f, 20+4*f, 0.4, seed+26))
	add("road_b", "triangulation", "geometric", true, RandomGeometric(2000*f, radiusFor(2000*f, 9), seed+27))
	add("blockfem_b", "structural", "block-coupled", true, BlockCoupled(30*f, 70, 20, seed+28))
	add("smallworld2d", "constrained mesh", "small-world-mesh", false, WithShortcuts(g2, 300*f*f, seed+29))
	add("smallworld3d", "constrained mesh", "small-world-mesh", false, WithShortcuts(g3, 250*f*f, seed+30))

	// Scrambled variants: matrices whose natural ordering was lost — the
	// case where locality-restoring reorderings have the most to gain.
	add("grid2d_perm", "2D/3D mesh", "fem-2d-scrambled", true, Scramble(g2, seed+1))
	add("grid3d_perm", "structural", "fem-3d-scrambled", true, Scramble(g3, seed+2))
	add("band_perm", "1D PDE", "banded-scrambled", true, Scramble(b, seed+4))
	add("road_perm", "road network", "geometric-scrambled", true, Scramble(geo, seed+7))

	// Irregular matrices: power-law, community and random structure, where
	// bandwidth reduction finds no band but partitioning still finds
	// communities to isolate.
	add("kron", "graph", "power-law", false, RMAT(9+logish(f), 8, seed+5))
	add("kron_b", "graph", "power-law", false, RMAT(8+logish(f), 16, seed+20))
	add("clustered_a", "social network", "clustered", true, Clustered(24, 100*f, 6, 3500*f, seed+18))
	add("clustered_b", "web graph", "clustered", true, Clustered(60, 40*f, 8, 3000*f, seed+19))
	add("clustered_c", "optimization", "clustered", true, Clustered(128, 20*f, 7, 2500*f, seed+25))
	add("smallworld2d_perm", "constrained mesh", "small-world-scrambled", false,
		Scramble(WithShortcuts(g2, 300*f*f, seed+29), seed+33))
	add("smallworld3d_perm", "constrained mesh", "small-world-scrambled", false,
		Scramble(WithShortcuts(g3, 250*f*f, seed+30), seed+34))
	add("kmer", "genome", "random-sparse", true, ErdosRenyi(3000*f, 4, seed+8))
	circ := WithDenseRows(ErdosRenyi(2000*f, 6, seed+12), 2+f/2, 0.08, seed+13)
	add("circuit", "circuit", "irregular-dense-rows", false, circ)
	add("kron_c", "graph", "power-law", false, RMAT(10+logish(f), 5, seed+35))
	powernet := WithDenseRows(Scramble(RandomGeometric(1800*f, radiusFor(1800*f, 10), seed+14), seed+15),
		20*f, 0.08, seed+36)
	add("powernet_perm", "power network", "geometric-scrambled-dense-rows", false, powernet)

	return ms
}

// radiusFor picks the geometric-graph radius yielding the requested
// average degree: deg ≈ πr²n.
func radiusFor(n int, avgDeg float64) float64 {
	return sqrt(avgDeg / (3.14159265 * float64(n)))
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 40; i++ {
		z = (z + x/z) / 2
	}
	return z
}

func logish(f int) int {
	s := 0
	for f > 1 {
		f /= 2
		s++
	}
	return s
}

// Fig1Set returns analogues of the three matrices of the paper's Figure 1:
// Freescale/Freescale2 (circuit simulation), SNAP/com-Amazon (social
// network) and GenBank/kmer_V1r (genome assembly).
func Fig1Set(scale Scale, seed int64) []Matrix {
	f := scale.factor()
	return []Matrix{
		{Name: "freescale2_like", Group: "circuit", Kind: "irregular-dense-rows",
			A: WithDenseRows(ErdosRenyi(2500*f, 5, seed+21), 3, 0.05, seed+22)},
		{Name: "com-amazon_like", Group: "social network", Kind: "geometric-scrambled",
			A: Scramble(RandomGeometric(2500*f, radiusFor(2500*f, 8), seed+23), seed+24)},
		{Name: "kmer_V1r_like", Group: "genome", Kind: "random-sparse",
			A: ErdosRenyi(4000*f, 3, seed+25)},
	}
}

// Fig4Set returns analogues of the six class-representative matrices of
// the paper's Figure 4, in class order.
func Fig4Set(scale Scale, seed int64) []Matrix {
	f := scale.factor()
	n2 := 40 * f
	return []Matrix{
		// Class 1 (333SP): balanced before and after; locality wins.
		{Name: "333SP_like", Group: "2D/3D mesh", Kind: "fem-2d-scrambled", SPD: true,
			A: Scramble(Grid2D(n2, n2), seed+31)},
		// Class 2 (nv2): reordering also improves balance.
		{Name: "nv2_like", Group: "semiconductor", Kind: "fem-3d-scrambled", SPD: true,
			A: Scramble(Grid3D(12*f, 12*f, 12*f), seed+32)},
		// Class 3 (audikw_1): mainly a balance improvement.
		{Name: "audikw_1_like", Group: "structural", Kind: "block-coupled-skewed",
			A: skewedBlockFEM(20*f, 100, seed+33)},
		// Class 4 (HV15R): performance unchanged either way.
		{Name: "HV15R_like", Group: "CFD", Kind: "fem-2d", SPD: true,
			A: Grid2D(n2, n2)},
		// Class 5: reordering provokes 1D imbalance.
		{Name: "class5_like", Group: "graph", Kind: "power-law",
			A: RMAT(9+logish(f), 8, seed+34)},
		// Class 6: reordering schemes diverge.
		{Name: "class6_like", Group: "mixed", Kind: "dense-rows",
			A: WithDenseRows(Scramble(Grid2D(n2/2, n2/2), seed+35), 6, 0.2, seed+36)},
	}
}

// skewedBlockFEM builds a block-coupled matrix whose blocks have strongly
// varying density, so the natural order is row-balanced but nonzero-
// imbalanced, the class-3 situation.
func skewedBlockFEM(blocks, blockSize int, seed int64) *sparse.CSR {
	a := BlockCoupled(blocks, blockSize, 20, seed)
	dense := WithDenseRows(a, blocks, 0.05, seed+1)
	return dense
}

// LargeSet returns the ten-matrix set of the reordering-overhead
// experiment (paper Table 5), named after its application domains.
func LargeSet(scale Scale, seed int64) []Matrix {
	f := scale.factor()
	return []Matrix{
		{Name: "delaunay_like", Group: "triangulation", Kind: "geometric",
			A: RandomGeometric(4000*f, radiusFor(4000*f, 6), seed+41)},
		{Name: "europe_osm_like", Group: "road network", Kind: "geometric",
			A: RandomGeometric(6000*f, radiusFor(6000*f, 3), seed+42)},
		{Name: "Flan_like", Group: "structural", Kind: "fem-3d",
			A: Grid3D(14*f, 14*f, 14), SPD: true},
		{Name: "HV15R_like", Group: "CFD", Kind: "dense-rows",
			A: WithDenseRows(Grid2D(50*f, 50*f), 8, 0.1, seed+43)},
		{Name: "indochina_like", Group: "web graph", Kind: "power-law",
			A: RMAT(10+logish(f), 10, seed+44)},
		{Name: "kmer_like", Group: "genome", Kind: "random-sparse",
			A: ErdosRenyi(8000*f, 3, seed+45)},
		{Name: "kron_like", Group: "graph", Kind: "power-law",
			A: RMAT(10+logish(f), 16, seed+46)},
		{Name: "mycielskian_like", Group: "combinatorial", Kind: "dense",
			A: ErdosRenyi(1200*f, 60, seed+47)},
		{Name: "nlpkkt_like", Group: "optimization", Kind: "fem-3d-scrambled",
			A: Scramble(Grid3D(14*f, 14*f, 14), seed+48), SPD: true},
		{Name: "vas_stokes_like", Group: "semiconductor", Kind: "block-coupled",
			A: BlockCoupled(24*f, 120, 40, seed+49)},
	}
}

// Describe returns a one-line summary of a collection member.
func (m Matrix) Describe() string {
	return fmt.Sprintf("%-16s %-16s %8d rows %10d nnz", m.Name, m.Group, m.A.Rows, m.A.NNZ())
}
