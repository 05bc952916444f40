package experiments

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"sparseorder/internal/admit"
	"sparseorder/internal/gen"
	"sparseorder/internal/obs"
	"sparseorder/internal/sparse"
)

// LoadMatrixFiles reads a Matrix Market file corpus into the study's
// matrix form through the parallel ingestion pipeline, using
// cfg.IngestWorkers workers per file (see sparse.ReadMatrixMarketWorkers;
// the result is byte-identical at any worker count). Each file becomes
// one gen.Matrix named after its base name without the .mtx suffix, in
// argument order — the entry point behind `study corpus.mtx ...`.
// Telemetry flows through cfg.Obs ("sparse/ingest" spans with scan and
// assemble sub-phases), and the armed fault plan's matrix/read and
// ingest/chunk points cover every file.
func LoadMatrixFiles(ctx context.Context, cfg Config, paths []string) ([]gen.Matrix, error) {
	cfg = cfg.withDefaults()
	ctx = obs.NewContext(ctx, cfg.Obs)
	ms := make([]gen.Matrix, 0, len(paths))
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		a, err := sparse.ReadMatrixMarketCtx(ctx, f, cfg.IngestWorkers)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", path, err)
		}
		name := strings.TrimSuffix(filepath.Base(path), ".mtx")
		cfg.Logf("ingested %s: %dx%d, %d nonzeros (est. working set %s)",
			name, a.Rows, a.Cols, a.NNZ(), admit.FormatBytes(admit.EstimateIngestBytes(a.Rows, a.NNZ())))
		ms = append(ms, gen.Matrix{Name: name, Group: "file", Kind: "matrix-market", A: a})
	}
	return ms, nil
}

// IngestBench is the wall-clock scaling of Matrix Market ingestion over
// worker counts, the document committed as BENCH_ingest.json. Every run
// is sparse.ReadMatrixMarketWorkers; the 1-worker run is the baseline,
// and every other run must produce output byte-identical to it (the bench
// verifies this on every run, so the numbers double as a determinism
// check).
type IngestBench struct {
	BenchHeader
	Matrices []IngestBenchMatrix `json:"matrices"`
}

// IngestBenchMatrix is the measurement set for one matrix, serialized
// once with WriteMatrixMarket and re-read by every run.
type IngestBenchMatrix struct {
	Name      string `json:"name"`
	Rows      int    `json:"rows"`
	NNZ       int    `json:"nnz"`
	FileBytes int    `json:"file_bytes"`
	// EstIngestBytes is the governor's transient working-set model for
	// ingesting this matrix (admit.EstimateIngestBytes).
	EstIngestBytes int64            `json:"est_ingest_bytes"`
	Runs           []IngestBenchRun `json:"runs"`
}

// IngestBenchRun is one worker count's wall-clock measurement. Speedup is
// the 1-worker time divided by this run's time; MBPerSec is the file size
// over the run time.
type IngestBenchRun struct {
	Workers  int     `json:"workers"`
	Seconds  float64 `json:"seconds"`
	MBPerSec float64 `json:"mb_per_sec"`
	Speedup  float64 `json:"speedup"`
}

// IngestBenchMatrices returns the inputs for RunIngestBench: the matrices
// the reordering bench uses at the same scale, so the two committed
// benchmark documents (both taken at study scale) describe the same
// corpus.
func IngestBenchMatrices(seed int64, scale gen.Scale) []gen.Matrix {
	return ReorderBenchMatrices(seed, scale)
}

// RunIngestBench measures Matrix Market ingestion at each of workerCounts,
// which must start with the 1-worker baseline. Each run is repeated
// repeats times and the best time kept. Every result is checked for
// equality with the baseline's before its time is recorded.
func RunIngestBench(matrices []gen.Matrix, workerCounts []int, repeats int) (*IngestBench, error) {
	if len(workerCounts) == 0 || workerCounts[0] != 1 {
		return nil, fmt.Errorf("experiments: worker counts must start with the baseline 1, got %v", workerCounts)
	}
	out := &IngestBench{BenchHeader: newBenchHeader(repeats)}
	for _, m := range matrices {
		var buf bytes.Buffer
		if err := sparse.WriteMatrixMarket(&buf, m.A); err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", m.Name, err)
		}
		data := buf.Bytes()
		bm := IngestBenchMatrix{
			Name: m.Name, Rows: m.A.Rows, NNZ: m.A.NNZ(),
			FileBytes:      len(data),
			EstIngestBytes: admit.EstimateIngestBytes(m.A.Rows, m.A.NNZ()),
		}
		mb := float64(len(data)) / (1 << 20)

		var ref *sparse.CSR
		baseline := 0.0
		for _, w := range workerCounts {
			// The check against the baseline stays off the clock: fn keeps
			// the last run's matrix, and the reader is deterministic.
			var a *sparse.CSR
			secs, err := TimeRuns(out.Repeats, func() (err error) {
				a, err = sparse.ReadMatrixMarketWorkers(bytes.NewReader(data), w)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: %s: read (workers=%d): %w", m.Name, w, err)
			}
			if ref == nil {
				ref = a
			} else if !a.Equal(ref) {
				return nil, fmt.Errorf("experiments: %s: ingest at %d workers diverged from 1 worker", m.Name, w)
			}
			best := slices.Min(secs)
			if baseline == 0 {
				baseline = best
			}
			bm.Runs = append(bm.Runs, IngestBenchRun{
				Workers: w, Seconds: best, MBPerSec: mb / best, Speedup: baseline / best,
			})
		}
		out.Matrices = append(out.Matrices, bm)
	}
	return out, nil
}
