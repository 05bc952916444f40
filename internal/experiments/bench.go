package experiments

import (
	"encoding/json"
	"runtime"
	"time"
)

// A host measurement is timed by TimeRuns and published as a BENCH_*.json
// document: a struct that embeds BenchHeader first and is formatted by
// RenderBench. Best-of figures are the minimum of the returned samples
// (slices.Min), as the paper reports host times; medians and quartiles
// come from stats.Quantile.

// BenchHeader records the host a benchmark document was measured on and
// its repeat count. Every document type embeds it first, so every
// BENCH_*.json opens with the same three keys. Speedups at worker counts
// beyond HostCPUs cannot come from concurrency.
type BenchHeader struct {
	HostCPUs   int `json:"host_cpus"`
	GoMaxProcs int `json:"gomaxprocs"`
	Repeats    int `json:"repeats"`
}

// newBenchHeader describes the running host, with repeats clamped to at
// least one.
func newBenchHeader(repeats int) BenchHeader {
	return BenchHeader{
		HostCPUs:   runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Repeats:    max(repeats, 1),
	}
}

// TimeRuns runs fn reps times (at least once) and returns each run's wall
// clock seconds, stopping at the first error. A forced GC before each run
// keeps the previous run's garbage off this one's bill: the hygiene
// testing.B applies between benchmarks, and material here because a
// 60-second quotient-graph AMD run can otherwise tax the measurement
// after it.
func TimeRuns(reps int, fn func() error) ([]float64, error) {
	secs := make([]float64, 0, max(reps, 1))
	for range max(reps, 1) {
		runtime.GC()
		start := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return secs, nil
}

// RenderBench formats a benchmark document as the indented JSON committed
// as its BENCH_*.json file.
func RenderBench(doc any) (string, error) {
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return "", err
	}
	return string(buf) + "\n", nil
}
