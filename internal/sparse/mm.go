package sparse

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Matrix Market exchange format support (coordinate real/integer/pattern,
// general/symmetric/skew-symmetric). This mirrors the format used by the
// SuiteSparse collection that the paper's dataset is drawn from.
//
// ReadMatrixMarketWorkers (ingest.go) is the one reader: a chunked
// pipeline that runs the same code at every worker count, one chunk
// inline on the caller's goroutine at 1 worker. It parses each entry
// line with scanEntry (mmscan.go). A line-at-a-time reader in
// mm_oracle_test.go, with its own strconv tokenizer, is the oracle it is
// checked against.

// MMHeader describes the banner line of a Matrix Market file.
type MMHeader struct {
	Object   string // "matrix"
	Format   string // "coordinate" or "array"
	Field    string // "real", "integer" or "pattern"
	Symmetry string // "general", "symmetric", "skew-symmetric"
}

// readMMBanner parses and validates the banner line of a coordinate
// Matrix Market stream.
func readMMBanner(br *bufio.Reader) (MMHeader, error) {
	// Tolerate EOF on the banner read the same way the size-line loop
	// does: a stream holding only a banner (no trailing newline) should
	// be judged on the banner's content, not fail with a read error.
	banner, err := br.ReadString('\n')
	if err != nil && banner == "" {
		return MMHeader{}, fmt.Errorf("sparse: reading banner: %w", err)
	}
	fields := strings.Fields(strings.ToLower(banner))
	if len(fields) != 5 || fields[0] != "%%matrixmarket" {
		return MMHeader{}, fmt.Errorf("sparse: malformed Matrix Market banner %q", strings.TrimSpace(banner))
	}
	h := MMHeader{Object: fields[1], Format: fields[2], Field: fields[3], Symmetry: fields[4]}
	if h.Object != "matrix" || h.Format != "coordinate" {
		return MMHeader{}, fmt.Errorf("sparse: unsupported Matrix Market object/format %s/%s", h.Object, h.Format)
	}
	switch h.Field {
	case "real", "integer", "pattern":
	default:
		return MMHeader{}, fmt.Errorf("sparse: unsupported Matrix Market field %q", h.Field)
	}
	switch h.Symmetry {
	case "general", "symmetric", "skew-symmetric":
	default:
		return MMHeader{}, fmt.Errorf("sparse: unsupported Matrix Market symmetry %q", h.Symmetry)
	}
	return h, nil
}

// readMMSizeLine skips comments and blank lines, then parses the size
// line.
func readMMSizeLine(br *bufio.Reader) (rows, cols, nnz int, err error) {
	for {
		line, err := br.ReadString('\n')
		if err != nil && line == "" {
			return 0, 0, 0, fmt.Errorf("sparse: missing size line: %w", err)
		}
		t := trimMMSpace([]byte(line))
		if len(t) == 0 || t[0] == '%' {
			continue
		}
		return parseSizeLine(t)
	}
}

// ReadMatrixMarketShape reads only the banner and the size line of a
// Matrix Market stream and returns the declared shape, failing with the
// error ReadMatrixMarketWorkers gives for the same lines. Ingest sizes its
// per-row arrays from the declared rows before it reads any entry, so a
// caller holding an untrusted stream bounds that work with this first.
func ReadMatrixMarketShape(r io.Reader) (rows, cols, nnz int, err error) {
	br := bufio.NewReader(r)
	if _, err := readMMBanner(br); err != nil {
		return 0, 0, 0, err
	}
	return readMMSizeLine(br)
}

// WriteMatrixMarket writes a in coordinate real general format with
// 1-based indices.
func WriteMatrixMarket(w io.Writer, a *CSR) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n", a.Rows, a.Cols, a.NNZ()); err != nil {
		return err
	}
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", i+1, a.ColIdx[k]+1, a.Val[k]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WritePermutation writes a permutation as a Matrix Market integer vector
// (one 1-based index per line), the representation used by the paper's
// reordering artifact.
func WritePermutation(w io.Writer, p Perm) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix array integer general\n%d 1\n", len(p)); err != nil {
		return err
	}
	for _, v := range p {
		if _, err := fmt.Fprintf(bw, "%d\n", v+1); err != nil {
			return err
		}
	}
	return bw.Flush()
}
