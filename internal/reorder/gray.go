package reorder

import (
	"sort"

	"sparseorder/internal/sparse"
)

// grayOrder computes the Gray ordering of Zhao et al. (paper §2.1.4) with
// the parameters the study uses: rows with more than opts.GrayDenseThreshold
// (default 20) nonzeros form the dense submatrix and are grouped by
// descending density (density reordering, aimed at branch prediction);
// the remaining sparse rows are each summarised by an
// opts.GrayBitmapBits-bit (default 16) occupancy bitmap over equal column
// sections and ordered by the rank of the bitmap in the reflected Gray-code
// sequence, placing rows with similar column footprints next to each other
// for locality. Only rows are permuted; the ordering is unsymmetric.
func grayOrder(a *sparse.CSR, opts Options) sparse.Perm {
	opts = opts.withDefaults()
	bits := opts.GrayBitmapBits
	// rowBitmap and grayRank are correct for the full uint64 width, so the
	// clamp sits at 64: configured widths up to 64 are honoured exactly
	// (a clamp at 62 would silently change the ordering for 63 and 64).
	if bits > 64 {
		bits = 64
	}
	var dense, spr []int32
	for i := 0; i < a.Rows; i++ {
		if a.RowNNZ(i) > opts.GrayDenseThreshold {
			dense = append(dense, int32(i))
		} else {
			spr = append(spr, int32(i))
		}
	}

	// Dense submatrix: density reordering — group rows of similar nonzero
	// count together, densest first.
	sort.SliceStable(dense, func(x, y int) bool {
		return a.RowNNZ(int(dense[x])) > a.RowNNZ(int(dense[y]))
	})

	// Sparse submatrix: bitmap reordering by Gray-code rank.
	rank := make([]uint64, a.Rows)
	for _, i := range spr {
		rank[i] = grayRank(rowBitmap(a, int(i), bits))
	}
	sort.SliceStable(spr, func(x, y int) bool {
		return rank[spr[x]] < rank[spr[y]]
	})

	p := make(sparse.Perm, 0, a.Rows)
	for _, i := range dense {
		p = append(p, int(i))
	}
	for _, i := range spr {
		p = append(p, int(i))
	}
	return p
}

// rowBitmap summarises row i as a bits-wide occupancy bitmap: the columns
// are divided into bits equal sections and bit s is set when the row has at
// least one nonzero in section s. Bit 0 is the leftmost section, stored as
// the most significant bit so that lexicographic section order matches
// numeric order.
func rowBitmap(a *sparse.CSR, i, bits int) uint64 {
	var bm uint64
	cols := a.Cols
	if cols == 0 {
		return 0
	}
	for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
		s := int(int64(a.ColIdx[k]) * int64(bits) / int64(cols))
		if s >= bits {
			s = bits - 1
		}
		bm |= 1 << uint(bits-1-s)
	}
	return bm
}

// grayRank returns the index of code g in the reflected Gray-code sequence,
// i.e. the inverse of the binary-to-Gray transform b ↦ b^(b>>1).
func grayRank(g uint64) uint64 {
	b := g
	b ^= b >> 1
	b ^= b >> 2
	b ^= b >> 4
	b ^= b >> 8
	b ^= b >> 16
	b ^= b >> 32
	return b
}
