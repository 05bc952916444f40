// Package gen generates the synthetic sparse-matrix collection that stands
// in for the SuiteSparse Matrix Collection (see DESIGN.md, substitution 1).
// Each generator reproduces a structural class present in the study's 490
// matrices: regular FEM meshes, scrambled meshes, power-law graphs,
// road-network-like geometric graphs, block-coupled FEM systems, matrices
// with dense rows, and banded systems.
package gen

import (
	"math"
	"math/rand"
	"sort"

	"sparseorder/internal/sparse"
)

// Grid2D returns the 5-point Laplacian stencil matrix of an nx×ny grid:
// symmetric positive definite, naturally banded — the structure of 2D FEM
// problems such as 333SP.
func Grid2D(nx, ny int) *sparse.CSR {
	n := nx * ny
	coo := sparse.NewCOO(n, n, 5*n)
	idx := func(x, y int) int { return y*nx + x }
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			i := idx(x, y)
			coo.Append(i, i, 4)
			if x > 0 {
				coo.Append(i, idx(x-1, y), -1)
			}
			if x < nx-1 {
				coo.Append(i, idx(x+1, y), -1)
			}
			if y > 0 {
				coo.Append(i, idx(x, y-1), -1)
			}
			if y < ny-1 {
				coo.Append(i, idx(x, y+1), -1)
			}
		}
	}
	a, err := coo.ToCSR()
	if err != nil {
		panic("gen: Grid2D: " + err.Error())
	}
	return a
}

// Grid3D returns the 7-point Laplacian of an nx×ny×nz grid — the structure
// of 3D solid-mechanics problems.
func Grid3D(nx, ny, nz int) *sparse.CSR {
	n := nx * ny * nz
	coo := sparse.NewCOO(n, n, 7*n)
	idx := func(x, y, z int) int { return (z*ny+y)*nx + x }
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				i := idx(x, y, z)
				coo.Append(i, i, 6)
				if x > 0 {
					coo.Append(i, idx(x-1, y, z), -1)
				}
				if x < nx-1 {
					coo.Append(i, idx(x+1, y, z), -1)
				}
				if y > 0 {
					coo.Append(i, idx(x, y-1, z), -1)
				}
				if y < ny-1 {
					coo.Append(i, idx(x, y+1, z), -1)
				}
				if z > 0 {
					coo.Append(i, idx(x, y, z-1), -1)
				}
				if z < nz-1 {
					coo.Append(i, idx(x, y, z+1), -1)
				}
			}
		}
	}
	a, err := coo.ToCSR()
	if err != nil {
		panic("gen: Grid3D: " + err.Error())
	}
	return a
}

// Banded returns an n×n symmetric banded matrix where each sub-diagonal
// within the half bandwidth is kept with the given density. Diagonal
// entries make it diagonally dominant (SPD).
func Banded(n, halfBandwidth int, density float64, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	coo := sparse.NewCOO(n, n, n*(1+int(2*density*float64(halfBandwidth))))
	for i := 0; i < n; i++ {
		for d := 1; d <= halfBandwidth; d++ {
			j := i + d
			if j >= n {
				break
			}
			if rng.Float64() < density {
				v := -rng.Float64()
				coo.Append(i, j, v)
				coo.Append(j, i, v)
			}
		}
	}
	return spdFinish(coo, n)
}

// RMAT returns the symmetrized adjacency matrix of an R-MAT (Kronecker)
// power-law graph with 2^scale vertices and edgeFactor·2^scale directed
// edge samples — the structure of kron_g500 and social-network matrices,
// with highly skewed row lengths.
func RMAT(scale, edgeFactor int, seed int64) *sparse.CSR {
	const pa, pb, pc = 0.57, 0.19, 0.19
	rng := rand.New(rand.NewSource(seed))
	n := 1 << uint(scale)
	m := edgeFactor * n
	coo := sparse.NewCOO(n, n, 2*m+n)
	for e := 0; e < m; e++ {
		i, j := 0, 0
		for level := 0; level < scale; level++ {
			r := rng.Float64()
			switch {
			case r < pa:
			case r < pa+pb:
				j |= 1 << uint(level)
			case r < pa+pb+pc:
				i |= 1 << uint(level)
			default:
				i |= 1 << uint(level)
				j |= 1 << uint(level)
			}
		}
		if i == j {
			continue
		}
		v := rng.Float64()
		coo.Append(i, j, v)
		coo.Append(j, i, v)
	}
	for i := 0; i < n; i++ {
		coo.Append(i, i, 1)
	}
	a, err := coo.ToCSR()
	if err != nil {
		panic("gen: RMAT: " + err.Error())
	}
	return a
}

// RandomGeometric returns the symmetric adjacency matrix of a random
// geometric graph: n points in the unit square connected when within the
// given radius — low, near-uniform degree and strong community structure,
// the shape of road networks like europe_osm. Vertices are numbered in
// Morton (Z-curve) order of their coordinates, mirroring the spatial
// locality real road-network matrices arrive with; use Scramble to destroy
// it.
func RandomGeometric(n int, radius float64, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return morton(xs[order[a]], ys[order[a]]) < morton(xs[order[b]], ys[order[b]])
	})
	nxs := make([]float64, n)
	nys := make([]float64, n)
	for newID, oldID := range order {
		nxs[newID] = xs[oldID]
		nys[newID] = ys[oldID]
	}
	xs, ys = nxs, nys
	// Bin points into a grid of radius-sized cells; only neighbouring cells
	// can contain connectable points.
	cells := int(1/radius) + 1
	bins := make(map[[2]int][]int32)
	for i := 0; i < n; i++ {
		c := [2]int{int(xs[i] * float64(cells)), int(ys[i] * float64(cells))}
		bins[c] = append(bins[c], int32(i))
	}
	coo := sparse.NewCOO(n, n, 8*n)
	r2 := radius * radius
	// Iterate cells in deterministic order (map iteration order is not).
	keys := make([][2]int, 0, len(bins))
	for c := range bins {
		keys = append(keys, c)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
	for _, c := range keys {
		pts := bins[c]
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				other := bins[[2]int{c[0] + dx, c[1] + dy}]
				for _, i := range pts {
					for _, j := range other {
						if j <= i {
							continue
						}
						ddx, ddy := xs[i]-xs[j], ys[i]-ys[j]
						if ddx*ddx+ddy*ddy <= r2 {
							v := -rng.Float64()
							coo.Append(int(i), int(j), v)
							coo.Append(int(j), int(i), v)
						}
					}
				}
			}
		}
	}
	return spdFinish(coo, n)
}

// morton interleaves the high 16 bits of the quantized coordinates into a
// Z-curve key.
func morton(x, y float64) uint64 {
	return spread(uint32(x*65535)) | spread(uint32(y*65535))<<1
}

func spread(v uint32) uint64 {
	x := uint64(v) & 0xffff
	x = (x | x<<16) & 0x0000ffff0000ffff
	x = (x | x<<8) & 0x00ff00ff00ff00ff
	x = (x | x<<4) & 0x0f0f0f0f0f0f0f0f
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}

// MixedStencil3D returns a 3D grid matrix where a fraction fracWide of the
// vertices couple to their full 3x3x3 neighbourhood (26 neighbours) and the
// rest to the 7-point stencil — the row-density diversity of higher-order
// or mixed-element FEM discretisations. The matrix arrives well ordered
// (grid order); grouping its rows by density, as the Gray ordering does,
// scatters spatially distant rows together.
func MixedStencil3D(nx, ny, nz int, fracWide float64, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	n := nx * ny * nz
	idx := func(x, y, z int) int { return (z*ny+y)*nx + x }
	coo := sparse.NewCOO(n, n, 9*n)
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				i := idx(x, y, z)
				wide := rng.Float64() < fracWide
				for dz := -1; dz <= 1; dz++ {
					for dy := -1; dy <= 1; dy++ {
						for dx := -1; dx <= 1; dx++ {
							manhattan := abs(dx) + abs(dy) + abs(dz)
							if manhattan == 0 {
								continue
							}
							if !wide && manhattan > 1 {
								continue
							}
							xx, yy, zz := x+dx, y+dy, z+dz
							if xx < 0 || xx >= nx || yy < 0 || yy >= ny || zz < 0 || zz >= nz {
								continue
							}
							// Insert both directions so the pattern stays
							// symmetric even when the neighbour is narrow.
							j := idx(xx, yy, zz)
							v := -1 / float64(manhattan)
							coo.Append(i, j, v)
							coo.Append(j, i, v)
						}
					}
				}
			}
		}
	}
	return spdFinish(coo, n)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Clustered returns a graph of nc communities of the given size with dense
// random intra-community coupling plus a sprinkle of global shortcut edges,
// with community members interleaved in the vertex numbering (round-robin),
// so the matrix arrives badly ordered. Partitioning-based orderings recover
// the communities; bandwidth reduction cannot, because the shortcuts force
// any BFS band to span the whole matrix — the regime where the study finds
// GP and HP ahead of RCM.
func Clustered(nc, size, intraDeg, shortcuts int, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	n := nc * size
	// Vertex v belongs to community v % nc (interleaved numbering).
	member := func(c, k int) int { return k*nc + c }
	coo := sparse.NewCOO(n, n, n*(intraDeg+1))
	for c := 0; c < nc; c++ {
		for k := 0; k < size; k++ {
			i := member(c, k)
			for t := 0; t < intraDeg; t++ {
				j := member(c, rng.Intn(size))
				if i == j {
					continue
				}
				v := -rng.Float64()
				coo.Append(i, j, v)
				coo.Append(j, i, v)
			}
		}
	}
	for s := 0; s < shortcuts; s++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		v := -rng.Float64()
		coo.Append(i, j, v)
		coo.Append(j, i, v)
	}
	return spdFinish(coo, n)
}

// WithShortcuts adds count random symmetric long-range entries to a copy
// of the square matrix a — the structure of meshes with constraint or
// multiple-point coupling rows. The natural (e.g. grid) ordering remains
// good for SpMV, but breadth-first bandwidth reduction collapses: every
// BFS level reaches across the shortcuts, so RCM scatters what was a tight
// band, while partitioning-based orderings simply pay for the cut
// shortcuts and keep the patches intact.
func WithShortcuts(a *sparse.CSR, count int, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	coo := sparse.FromCSR(a)
	for t := 0; t < count; t++ {
		i, j := rng.Intn(a.Rows), rng.Intn(a.Cols)
		if i == j {
			continue
		}
		v := -rng.Float64()
		coo.Append(i, j, v)
		coo.Append(j, i, v)
	}
	out, err := coo.ToCSR()
	if err != nil {
		panic("gen: WithShortcuts: " + err.Error())
	}
	return out
}

// ErdosRenyi returns a symmetric sparse random graph matrix with expected
// average degree avgDeg — fully unstructured, the shape of kmer genome
// assembly graphs when the degree is small.
func ErdosRenyi(n int, avgDeg float64, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	m := int(avgDeg * float64(n) / 2)
	coo := sparse.NewCOO(n, n, 2*m+n)
	for e := 0; e < m; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		v := -rng.Float64()
		coo.Append(i, j, v)
		coo.Append(j, i, v)
	}
	return spdFinish(coo, n)
}

// BlockCoupled returns a block-diagonal matrix of dense-ish SPD blocks with
// sparse random coupling between consecutive blocks — the structure of
// multi-body FEM matrices like audikw_1. Block densities ramp from light to
// heavy across the blocks (different bodies are meshed at different
// resolutions), so row nonzero counts vary strongly with position: density-
// based row grouping, as in the Gray ordering, interleaves rows from every
// block.
func BlockCoupled(blocks, blockSize int, couplingPerBlock int, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	n := blocks * blockSize
	coo := sparse.NewCOO(n, n, blocks*blockSize*8)
	for b := 0; b < blocks; b++ {
		base := b * blockSize
		// Intra-block degree ramps from 3 to 15 across blocks.
		deg := 3 + 12*b/maxInt(1, blocks-1)
		for r := 0; r < blockSize; r++ {
			i := base + r
			for t := 0; t < deg; t++ {
				j := base + rng.Intn(blockSize)
				if j == i {
					continue
				}
				v := -rng.Float64()
				coo.Append(i, j, v)
				coo.Append(j, i, v)
			}
		}
		if b+1 < blocks {
			next := (b + 1) * blockSize
			for t := 0; t < couplingPerBlock; t++ {
				i := base + rng.Intn(blockSize)
				j := next + rng.Intn(blockSize)
				v := -rng.Float64()
				coo.Append(i, j, v)
				coo.Append(j, i, v)
			}
		}
	}
	return spdFinish(coo, n)
}

// WithDenseRows injects dense rows into a copy of a: count rows are given
// nonzeros in a fraction density of all columns (unsymmetric, like the
// coupling constraints or posting lists in HV15R-class matrices).
func WithDenseRows(a *sparse.CSR, count int, density float64, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	coo := sparse.FromCSR(a)
	for t := 0; t < count; t++ {
		i := rng.Intn(a.Rows)
		nnz := int(density * float64(a.Cols))
		for s := 0; s < nnz; s++ {
			coo.Append(i, rng.Intn(a.Cols), rng.Float64())
		}
	}
	out, err := coo.ToCSR()
	if err != nil {
		panic("gen: WithDenseRows: " + err.Error())
	}
	return out
}

// Scramble applies a random symmetric permutation, destroying any natural
// ordering — the state in which many SuiteSparse matrices arrive and the
// case where reordering has the most to gain.
func Scramble(a *sparse.CSR, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	p := sparse.Perm(rng.Perm(a.Rows))
	b, err := sparse.PermuteSymmetricWorkers(a, p, 1)
	if err != nil {
		panic("gen: Scramble: " + err.Error())
	}
	return b
}

// TallSkinnyDense returns a fully dense rows×cols matrix stored in CSR —
// the paper's §4.2 bandwidth-ceiling reference (96000×4000 in the paper).
func TallSkinnyDense(rows, cols int, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	a := &sparse.CSR{
		Rows:   rows,
		Cols:   cols,
		RowPtr: make([]int, rows+1),
		ColIdx: make([]int32, rows*cols),
		Val:    make([]float64, rows*cols),
	}
	for i := 0; i < rows; i++ {
		a.RowPtr[i+1] = (i + 1) * cols
		base := i * cols
		for j := 0; j < cols; j++ {
			a.ColIdx[base+j] = int32(j)
			a.Val[base+j] = rng.Float64()
		}
	}
	return a
}

// spdFinish converts the accumulated off-diagonal COO entries to CSR and
// sets each diagonal entry to (sum of absolute off-diagonal row entries)+1,
// making the matrix symmetric positive definite by diagonal dominance.
func spdFinish(coo *sparse.COO, n int) *sparse.CSR {
	a, err := coo.ToCSR()
	if err != nil {
		panic("gen: " + err.Error())
	}
	rowAbs := make([]float64, n)
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if int(a.ColIdx[k]) != i {
				rowAbs[i] += math.Abs(a.Val[k])
			}
		}
	}
	full := sparse.FromCSR(a)
	diagSeen := make([]bool, n)
	for k := range full.Val {
		if full.Row[k] == full.Col[k] {
			full.Val[k] = rowAbs[full.Row[k]] + 1
			diagSeen[full.Row[k]] = true
		}
	}
	for i := 0; i < n; i++ {
		if !diagSeen[i] {
			full.Append(i, i, rowAbs[i]+1)
		}
	}
	out, err := full.ToCSR()
	if err != nil {
		panic("gen: " + err.Error())
	}
	return out
}
