package sparse

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"unicode/utf8"

	"sparseorder/internal/par"
)

// This file keeps the line-at-a-time Matrix Market reader and the
// sequential counting-sort COO→CSR assembly as the oracles of the one
// ingestion pipeline production runs (ReadMatrixMarketWorkers and
// assembleSegs). The differential tests and FuzzReadMatrixMarket compare
// the pipeline against them at every worker count, 1 included.
//
// The oracle's entry lines go through their own tokenizer,
// parseEntryOracle: bytes.FieldsFunc over the separator set, then
// strconv.Atoi and strconv.ParseFloat. It shares no entry-parsing code
// with the production scanner, so a tokenizer bug in either shows up as a
// disagreement. It shares the banner and size-line readers, which the
// pipeline runs before any entry is scanned.

// oracleSep reports whether r separates Matrix Market fields: the ASCII
// blanks isMMSpace names. Every byte of a multi-byte rune is non-ASCII,
// so splitting by rune splits exactly where splitting by byte would.
func oracleSep(r rune) bool { return r < utf8.RuneSelf && isMMSpace(byte(r)) }

// parseEntryOracle parses one raw entry line against the header h and the
// size line's dimensions, returning 0-based indices. skip reports a blank
// or comment line. The checks run in the grammar's order — field count,
// then the indices, their ranges, the skew-symmetric diagonal, and last
// the value — and each reports the message the production scanner must
// give.
func parseEntryOracle(line []byte, h MMHeader, rows, cols int) (i, j int, v float64, skip bool, err error) {
	f := bytes.FieldsFunc(line, oracleSep)
	if len(f) == 0 || f[0][0] == '%' {
		return 0, 0, 0, true, nil
	}
	want := 3
	if h.Field == "pattern" {
		want = 2
	}
	t := bytes.TrimFunc(line, oracleSep)
	if len(f) < want {
		return 0, 0, 0, false, fmt.Errorf("sparse: malformed entry line %q", t)
	}
	if len(f) > want {
		return 0, 0, 0, false, fmt.Errorf("sparse: malformed entry line %q: trailing %q", t, f[want])
	}
	if i, err = strconv.Atoi(string(f[0])); err != nil {
		return 0, 0, 0, false, fmt.Errorf("sparse: bad row index %q", f[0])
	}
	if j, err = strconv.Atoi(string(f[1])); err != nil {
		return 0, 0, 0, false, fmt.Errorf("sparse: bad column index %q", f[1])
	}
	if i < 1 || i > rows {
		return 0, 0, 0, false, fmt.Errorf("sparse: row index %d outside 1..%d", i, rows)
	}
	if j < 1 || j > cols {
		return 0, 0, 0, false, fmt.Errorf("sparse: column index %d outside 1..%d", j, cols)
	}
	if h.Symmetry == "skew-symmetric" && i == j {
		return 0, 0, 0, false, fmt.Errorf("sparse: skew-symmetric matrix stores an explicit diagonal entry (%d,%d)", i, j)
	}
	v = 1
	if want == 3 {
		if v, err = strconv.ParseFloat(string(f[2]), 64); err != nil {
			return 0, 0, 0, false, fmt.Errorf("sparse: bad value %q: %w", f[2], err)
		}
	}
	return i - 1, j - 1, v, false, nil
}

// readMatrixMarketOracle parses a Matrix Market stream line by line
// through parseEntryOracle. Like the pipeline it sizes nothing from the
// declared nnz: the triplet slices grow as entries arrive.
func readMatrixMarketOracle(r io.Reader) (*CSR, error) {
	br := bufio.NewReader(r)
	h, err := readMMBanner(br)
	if err != nil {
		return nil, err
	}
	rows, cols, nnz, err := readMMSizeLine(br)
	if err != nil {
		return nil, err
	}

	coo := NewCOO(rows, cols, 0)
	read := 0
	for read < nnz {
		line, err := br.ReadString('\n')
		if err != nil && line == "" {
			return nil, fmt.Errorf("sparse: after %d of %d entries: %w", read, nnz, err)
		}
		i, j, v, skip, err := parseEntryOracle([]byte(line), h, rows, cols)
		if err != nil {
			return nil, fmt.Errorf("sparse: entry %d: %w", read+1, err)
		}
		if skip {
			continue
		}
		coo.Append(i, j, v)
		read++
	}
	for {
		line, err := br.ReadString('\n')
		if err != nil && line == "" {
			break
		}
		if f := bytes.FieldsFunc([]byte(line), oracleSep); len(f) > 0 && f[0][0] != '%' {
			return nil, fmt.Errorf("sparse: content after the declared %d entries: %q", nnz, bytes.TrimFunc([]byte(line), oracleSep))
		}
	}

	if h.Symmetry != "general" {
		// Mirror every off-diagonal entry after it (negated when skew;
		// skew-symmetric inputs carry no diagonal).
		e := NewCOO(rows, cols, 2*coo.NNZ())
		for k := range coo.Val {
			i, j, v := coo.Row[k], coo.Col[k], coo.Val[k]
			e.Row = append(e.Row, i)
			e.Col = append(e.Col, j)
			e.Val = append(e.Val, v)
			if i == j {
				continue
			}
			if h.Symmetry == "skew-symmetric" {
				v = -v
			}
			e.Row = append(e.Row, j)
			e.Col = append(e.Col, i)
			e.Val = append(e.Val, v)
		}
		coo = e
	}
	return toCSROracle(coo)
}

// toCSROracle assembles the triplets with one counting sort by row, then
// sorts each row by column and sums duplicate coordinates in entry order.
func toCSROracle(c *COO) (*CSR, error) {
	if len(c.Row) != len(c.Col) || len(c.Row) != len(c.Val) {
		return nil, fmt.Errorf("sparse: COO slice length mismatch %d/%d/%d", len(c.Row), len(c.Col), len(c.Val))
	}
	for k := range c.Row {
		if c.Row[k] < 0 || int(c.Row[k]) >= c.Rows || c.Col[k] < 0 || int(c.Col[k]) >= c.Cols {
			return nil, fmt.Errorf("sparse: COO entry %d at (%d,%d) outside %dx%d", k, c.Row[k], c.Col[k], c.Rows, c.Cols)
		}
	}
	nnz := len(c.Val)
	off := make([]int, c.Rows+1)
	for _, i := range c.Row {
		off[i+1]++
	}
	for i := 0; i < c.Rows; i++ {
		off[i+1] += off[i]
	}
	cols := make([]int32, nnz)
	vals := make([]float64, nnz)
	next := make([]int, c.Rows)
	copy(next, off[:c.Rows])
	for k := 0; k < nnz; k++ {
		i := c.Row[k]
		p := next[i]
		next[i]++
		cols[p] = c.Col[k]
		vals[p] = c.Val[k]
	}
	a := &CSR{
		Rows:   c.Rows,
		Cols:   c.Cols,
		RowPtr: make([]int, c.Rows+1),
		ColIdx: make([]int32, 0, nnz),
		Val:    make([]float64, 0, nnz),
	}
	for i := 0; i < c.Rows; i++ {
		lo, hi := off[i], off[i+1]
		sortColVal(cols[lo:hi], vals[lo:hi])
		rowStart := len(a.ColIdx)
		for k := lo; k < hi; k++ {
			if n := len(a.ColIdx); n > rowStart && cols[k] == a.ColIdx[n-1] {
				a.Val[n-1] += vals[k]
				continue
			}
			a.ColIdx = append(a.ColIdx, cols[k])
			a.Val = append(a.Val, vals[k])
		}
		a.RowPtr[i+1] = len(a.ColIdx)
	}
	return a, nil
}

// assembleWorkers runs the production assembly over the triplets split
// into one contiguous segment per worker, the shape the ingestion
// pipeline hands it.
func assembleWorkers(c *COO, workers int) (*CSR, error) {
	w := par.Resolve(workers)
	n := len(c.Row)
	chunks := par.Chunks(n, w)
	segs := make([]cooSeg, 0, chunks)
	for k := 0; k < chunks; k++ {
		lo, hi := k*n/chunks, (k+1)*n/chunks
		segs = append(segs, cooSeg{row: c.Row[lo:hi], col: c.Col[lo:hi], val: c.Val[lo:hi]})
	}
	return assembleSegs(c.Rows, c.Cols, segs, w)
}
