package sparse

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"strconv"

	"sparseorder/internal/faultinject"
	"sparseorder/internal/obs"
	"sparseorder/internal/par"
)

// Parallel streaming Matrix Market ingestion: the post-header byte stream
// is split into one chunk per worker, aligned to line boundaries; chunks
// are parsed concurrently into per-worker COO shards by the
// allocation-light scanner in mmscan.go (symmetric and skew-symmetric
// expansion happens inline, preserving the serial expansion order); and
// the shards are assembled into CSR by the parallel bucket-and-merge path
// in assemble.go.
//
// Determinism contract: chunk boundaries depend only on the byte stream,
// and chunks are contiguous, so the concatenated shard order equals the
// file's entry order for every worker count. Assembly preserves that
// order per row before its (pure-function) sort and duplicate-sum, so the
// output is byte-identical to ReadMatrixMarket — the serial reference
// reader — at any worker count. The two readers share every line-level
// parse helper, so they also accept and reject exactly the same inputs.

// ReadMatrixMarketWorkers parses a Matrix Market stream into CSR form
// using the parallel ingestion pipeline. Output is byte-identical to
// ReadMatrixMarket for every accepted stream and every worker count
// (0 = GOMAXPROCS, following the par.Resolve convention).
func ReadMatrixMarketWorkers(r io.Reader, workers int) (*CSR, error) {
	return ReadMatrixMarketCtx(context.Background(), r, workers)
}

// ReadMatrixMarketCtx is ReadMatrixMarketWorkers reporting phase timings
// ("ingest/scan" for the chunked read+parse, "ingest/assemble" for the
// COO→CSR merge) through any obs.Obs attached to the context. Without an
// Obs it is exactly ReadMatrixMarketWorkers.
func ReadMatrixMarketCtx(ctx context.Context, r io.Reader, workers int) (*CSR, error) {
	// Same fault point as the serial reader, so chaos schedules cover
	// both entry paths.
	if err := faultinject.Check(faultinject.MatrixRead, ""); err != nil {
		return nil, fmt.Errorf("sparse: reading matrix: %w", err)
	}
	w := par.Resolve(workers)

	ctx, sp := obs.Start(ctx, "sparse/ingest")
	sp.SetAttr("workers", strconv.Itoa(w))
	defer sp.End()

	_, scanSp := obs.Start(ctx, "ingest/scan")
	br := bufio.NewReaderSize(r, 1<<20)
	h, err := readMMBanner(br)
	if err != nil {
		scanSp.End()
		return nil, err
	}
	rows, cols, nnz, err := readMMSizeLine(br)
	if err != nil {
		scanSp.End()
		return nil, err
	}

	// Drain the remaining stream. The chunked scanner needs the full byte
	// range to place line-aligned boundaries; the buffer is transient and
	// its size is part of the governor's ingestion model
	// (admit.EstimateIngestBytes).
	var body bytes.Buffer
	if est := nnz * 16; est > 0 {
		if est > 1<<30 {
			est = 1 << 30
		}
		body.Grow(est)
	}
	if _, err := io.Copy(&body, br); err != nil {
		return nil, fmt.Errorf("sparse: reading entries: %w", err)
	}
	buf := body.Bytes()

	chunks := splitChunks(buf, w)
	shards := make([]cooSeg, len(chunks))
	lines := make([]int, len(chunks)) // file entries parsed, pre-expansion
	errs := make([]error, len(chunks))
	par.Ranges(len(chunks), w, func(_, lo, hi int) {
		for k := lo; k < hi; k++ {
			shards[k], lines[k], errs[k] = parseChunk(k, chunks[k], h, rows, cols)
		}
	})
	scanSp.End()
	for k, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sparse: chunk %d: %w", k, err)
		}
	}
	read := 0
	for _, n := range lines {
		read += n
	}
	if read < nnz {
		return nil, fmt.Errorf("sparse: after %d of %d entries: %w", read, nnz, io.ErrUnexpectedEOF)
	}
	if read > nnz {
		return nil, fmt.Errorf("sparse: content after the declared %d entries", nnz)
	}

	_, asmSp := obs.Start(ctx, "ingest/assemble")
	a, err := assembleSegs(rows, cols, shards, w)
	asmSp.End()
	return a, err
}

// splitChunks cuts buf into at most workers contiguous chunks whose
// boundaries fall just after a newline, so no line is ever split. The
// boundary positions depend only on the byte content and the resolved
// worker count; parsing is oblivious to them because chunks stay in file
// order.
func splitChunks(buf []byte, workers int) [][]byte {
	if len(buf) == 0 {
		return nil
	}
	if workers < 1 {
		workers = 1
	}
	chunks := make([][]byte, 0, workers)
	start := 0
	for k := 1; k < workers && start < len(buf); k++ {
		cut := k * len(buf) / workers
		if cut <= start {
			continue
		}
		// Advance to just past the next newline so the boundary never
		// lands mid-line.
		nl := bytes.IndexByte(buf[cut:], '\n')
		if nl < 0 {
			break
		}
		cut += nl + 1
		if cut > start {
			chunks = append(chunks, buf[start:cut])
			start = cut
		}
	}
	if start < len(buf) {
		chunks = append(chunks, buf[start:])
	}
	return chunks
}

// parseChunk scans one line-aligned chunk into a COO shard, expanding
// symmetric/skew-symmetric entries inline in the serial reader's order
// (entry, then mirror). It returns the number of file entries parsed —
// pre-expansion, so the caller can check the total against the declared
// nnz. Fields are parsed in place — no per-line strings, no
// strings.Fields slices.
func parseChunk(idx int, chunk []byte, h MMHeader, rows, cols int) (cooSeg, int, error) {
	// Per-chunk fault point for chaos testing of the ingestion pipeline;
	// keyed by the chunk ordinal so a schedule is stable across runs at a
	// fixed worker count. The Enabled guard keeps the production path free
	// of the key allocation.
	if faultinject.Enabled() {
		if err := faultinject.Check(faultinject.IngestChunk, "chunk"+strconv.Itoa(idx)); err != nil {
			return cooSeg{}, 0, err
		}
	}
	expand := h.Symmetry != "general"
	pattern := h.Field == "pattern"
	skew := h.Symmetry == "skew-symmetric"
	capHint := bytes.Count(chunk, []byte{'\n'}) + 1
	if expand {
		capHint *= 2
	}
	seg := cooSeg{
		row: make([]int32, 0, capHint),
		col: make([]int32, 0, capHint),
		val: make([]float64, 0, capHint),
	}
	entries := 0
	for len(chunk) > 0 {
		var line []byte
		if nl := bytes.IndexByte(chunk, '\n'); nl >= 0 {
			line, chunk = chunk[:nl], chunk[nl+1:]
		} else {
			line, chunk = chunk, nil
		}
		i, j, v, ok := parseEntryFast(line, pattern, skew, rows, cols)
		if !ok {
			// Anything unusual — comments, blanks, exotic spellings,
			// malformed lines — goes through the reference grammar, which
			// classifies it exactly like the serial reader would.
			t := trimMMSpace(line)
			if isCommentOrBlank(t) {
				continue
			}
			var err error
			i, j, v, err = parseEntryLine(t, h, rows, cols)
			if err != nil {
				return cooSeg{}, 0, err
			}
		}
		entries++
		seg.row = append(seg.row, int32(i))
		seg.col = append(seg.col, int32(j))
		seg.val = append(seg.val, v)
		if expand {
			switch {
			case h.Symmetry == "skew-symmetric":
				// Diagonal entries were rejected by parseEntryLine, so
				// every entry mirrors.
				seg.row = append(seg.row, int32(j))
				seg.col = append(seg.col, int32(i))
				seg.val = append(seg.val, -v)
			case i != j:
				seg.row = append(seg.row, int32(j))
				seg.col = append(seg.col, int32(i))
				seg.val = append(seg.val, v)
			}
		}
	}
	return seg, entries, nil
}
