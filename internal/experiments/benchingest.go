package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

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

// IngestBench is the serial-vs-parallel wall-clock comparison of Matrix
// Market ingestion, the document committed as BENCH_ingest.json. The
// serial baseline is sparse.ReadMatrixMarket, the line-at-a-time
// reference reader; the parallel runs are sparse.ReadMatrixMarketWorkers,
// whose chunked scanner must produce byte-identical output (the bench
// verifies this on every run, so the numbers double as a determinism
// check).
type IngestBench struct {
	// HostCPUs and GoMaxProcs record the hardware the numbers were taken
	// on; speedups at worker counts beyond HostCPUs can only come from the
	// leaner chunk scanner (in-place field parsing, fast-path float
	// conversion, allocation-free lines), not from concurrency.
	HostCPUs   int                 `json:"host_cpus"`
	GoMaxProcs int                 `json:"gomaxprocs"`
	Repeats    int                 `json:"repeats"` // best-of wall clock, like the paper
	Matrices   []IngestBenchMatrix `json:"matrices"`
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

// IngestBenchRun is one (path, worker count) wall-clock measurement.
// Speedup is the serial reference reader's time divided by this run's
// time; MBPerSec is the file size over the run time.
type IngestBenchRun struct {
	Path     string  `json:"path"` // serial, parallel
	Workers  int     `json:"workers"`
	Seconds  float64 `json:"seconds"`
	MBPerSec float64 `json:"mb_per_sec"`
	Speedup  float64 `json:"speedup"`
}

// IngestBenchMatrices returns the inputs for RunIngestBench: the same
// ≥1M-nonzero generated matrices the reordering bench uses at study scale,
// so the two committed benchmark documents describe the same corpus.
func IngestBenchMatrices(seed int64) []gen.Matrix {
	return ReorderBenchMatrices(seed, gen.ScaleStudy)
}

// RunIngestBench measures Matrix Market ingestion serial vs parallel.
// workerCounts are the parallel worker counts to measure; each run is
// repeated repeats times and the best time kept. Every parallel result is
// checked for equality with the serial result before its time is
// recorded.
func RunIngestBench(matrices []gen.Matrix, workerCounts []int, repeats int) (*IngestBench, error) {
	if repeats < 1 {
		repeats = 1
	}
	out := &IngestBench{
		HostCPUs:   runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Repeats:    repeats,
	}
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
		serial := 0.0
		for it := 0; it < repeats; it++ {
			start := time.Now()
			a, err := sparse.ReadMatrixMarket(bytes.NewReader(data))
			if err != nil {
				return nil, fmt.Errorf("experiments: %s: serial read: %w", m.Name, err)
			}
			if el := time.Since(start).Seconds(); serial == 0 || el < serial {
				serial = el
			}
			ref = a
		}
		bm.Runs = append(bm.Runs, IngestBenchRun{
			Path: "serial", Workers: 1, Seconds: serial, MBPerSec: mb / serial, Speedup: 1,
		})

		for _, w := range workerCounts {
			best := 0.0
			for it := 0; it < repeats; it++ {
				start := time.Now()
				a, err := sparse.ReadMatrixMarketWorkers(bytes.NewReader(data), w)
				if err != nil {
					return nil, fmt.Errorf("experiments: %s: parallel read (workers=%d): %w", m.Name, w, err)
				}
				el := time.Since(start).Seconds()
				if !a.Equal(ref) {
					return nil, fmt.Errorf("experiments: %s: parallel ingest at %d workers diverged from the serial reader", m.Name, w)
				}
				if best == 0 || el < best {
					best = el
				}
			}
			bm.Runs = append(bm.Runs, IngestBenchRun{
				Path: "parallel", Workers: w, Seconds: best,
				MBPerSec: mb / best, Speedup: serial / best,
			})
		}
		out.Matrices = append(out.Matrices, bm)
	}
	return out, nil
}

// RenderIngestBench formats an IngestBench as the indented JSON document
// committed as BENCH_ingest.json.
func RenderIngestBench(b *IngestBench) (string, error) {
	buf, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return "", err
	}
	return string(buf) + "\n", nil
}
