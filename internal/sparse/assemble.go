package sparse

import (
	"fmt"
	"sort"

	"sparseorder/internal/par"
)

// COO→CSR assembly, following the bucket-and-merge scheme of Engblom &
// Lukarski's parallel sparse assembly: the triplet stream is
// viewed as an ordered list of contiguous segments, per-segment row
// histograms are merged into one set of row offsets, every segment
// scatters its entries into its precomputed slots, and the rows are
// sorted and deduplicated in parallel ranges.
//
// Determinism contract (shared with the rest of internal/par): because
// the segments are contiguous slices of one global entry order and each
// segment's slots within a row are laid out in segment order, the
// scattered per-row sequences reproduce the global input order exactly,
// independent of the worker count. Sorting and duplicate-summing are pure
// functions of those sequences, so the assembled CSR is byte-identical
// for any worker count. (*COO).ToCSR is this code over one segment at 1
// worker; mm_oracle_test.go keeps a sequential counting-sort assembly as
// the oracle it is checked against.

// cooSeg is one contiguous segment of a conceptual global triplet list.
type cooSeg struct {
	row []int32
	col []int32
	val []float64
}

// shortRowMax is the longest row sortColVal insertion-sorts. Assembly's
// duplicate-summing order depends on it: insertion sort is stable and
// sort.Sort is not, so changing it can change the summed values of rows
// with duplicate columns.
const shortRowMax = 24

// sortColVal sorts a row's (column, value) pairs by column. Short rows —
// the overwhelmingly common case for the study's matrices — use an
// insertion sort to avoid sort.Sort's interface-call overhead; longer rows
// fall back to it. The algorithm choice is a pure function of the input,
// so identical per-row sequences get identical output at every worker
// count.
func sortColVal(cols []int32, vals []float64) {
	if len(cols) <= 1 {
		return
	}
	if len(cols) <= shortRowMax {
		for a := 1; a < len(cols); a++ {
			c, v := cols[a], vals[a]
			b := a
			for b > 0 && cols[b-1] > c {
				cols[b] = cols[b-1]
				vals[b] = vals[b-1]
				b--
			}
			cols[b] = c
			vals[b] = v
		}
		return
	}
	sort.Sort(&colValSort{cols, vals})
}

// assembleSegs assembles the concatenation of segs (in order) into CSR
// form with workers-way parallelism. Entries are bounds-checked against
// the dimensions, grouped by row, sorted by column within each row, and
// duplicate coordinates are summed in global entry order.
func assembleSegs(rows, cols int, segs []cooSeg, workers int) (*CSR, error) {
	total := 0
	for _, s := range segs {
		total += len(s.row)
	}
	// Per-(segment, row) counts are int32; a triplet list beyond int32
	// also overflows CSR's int32 column storage assumptions upstream, so
	// entry counts here always fit.
	if total > (1<<31 - 1) {
		return nil, fmt.Errorf("sparse: %d entries exceed the int32 assembly range", total)
	}

	// Stage 1: per-segment row histograms, bounds-checking as we count.
	counts := make([][]int32, len(segs))
	segErr := make([]error, len(segs))
	par.Ranges(len(segs), workers, func(_, lo, hi int) {
		for s := lo; s < hi; s++ {
			cnt := make([]int32, rows)
			seg := segs[s]
			for k := range seg.row {
				i, j := seg.row[k], seg.col[k]
				if i < 0 || int(i) >= rows || j < 0 || int(j) >= cols {
					segErr[s] = fmt.Errorf("sparse: COO entry at (%d,%d) outside %dx%d", i, j, rows, cols)
					return
				}
				cnt[i]++
			}
			counts[s] = cnt
		}
	})
	for _, err := range segErr {
		if err != nil {
			return nil, err
		}
	}

	// Stage 2: merge histograms into global row offsets; counts[s][i] is
	// rewritten in place to the segment's starting slot within row i
	// (relative to off[i]), which stage 3 uses as its scatter cursor.
	off := make([]int, rows+1)
	for i := 0; i < rows; i++ {
		run := 0
		for s := range counts {
			ci := counts[s][i]
			counts[s][i] = int32(run)
			run += int(ci)
		}
		off[i+1] = off[i] + run
	}

	// Stage 3: parallel scatter. Segments own disjoint slot ranges within
	// every row, so they write concurrently without synchronisation; slots
	// within a segment are filled in segment order, reproducing the global
	// entry order row by row.
	colScratch := make([]int32, total)
	valScratch := make([]float64, total)
	par.Ranges(len(segs), workers, func(_, lo, hi int) {
		for s := lo; s < hi; s++ {
			seg, cur := segs[s], counts[s]
			for k := range seg.row {
				i := seg.row[k]
				p := off[i] + int(cur[i])
				cur[i]++
				colScratch[p] = seg.col[k]
				valScratch[p] = seg.val[k]
			}
		}
	})

	// Stage 4: sort and dedup each row in place over parallel row ranges.
	newLen := make([]int32, rows)
	par.Ranges(rows, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			rlo, rhi := off[i], off[i+1]
			cs, vs := colScratch[rlo:rhi], valScratch[rlo:rhi]
			sortColVal(cs, vs)
			n := 0
			for k := 0; k < len(cs); k++ {
				if n > 0 && cs[k] == cs[n-1] {
					vs[n-1] += vs[k]
					continue
				}
				cs[n] = cs[k]
				vs[n] = vs[k]
				n++
			}
			newLen[i] = int32(n)
		}
	})

	// Stage 5: compact. When no duplicates were summed the scratch arrays
	// already hold the final layout and are adopted wholesale.
	a := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	final := 0
	for i := 0; i < rows; i++ {
		final += int(newLen[i])
		a.RowPtr[i+1] = final
	}
	if final == total {
		a.ColIdx = colScratch
		a.Val = valScratch
		return a, nil
	}
	a.ColIdx = make([]int32, final)
	a.Val = make([]float64, final)
	par.Ranges(rows, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			n := int(newLen[i])
			copy(a.ColIdx[a.RowPtr[i]:a.RowPtr[i]+n], colScratch[off[i]:off[i]+n])
			copy(a.Val[a.RowPtr[i]:a.RowPtr[i]+n], valScratch[off[i]:off[i]+n])
		}
	})
	return a, nil
}
