// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed time from a seed and prints, as its last line, one
// JSON object with the verified op counts and every metric of the chosen
// mode:
//
//	perfbench -workload study|mesh-solve|serve-mixed -seed N -seconds S -trace 0|1
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it runs the
// same workload with spans recorded around every layer call and prints the
// per-layer metrics. See README.md for what each workload exercises.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// metric names one reported number and its unit.
type metric struct{ name, unit string }

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them; README.md gives each workload's definition.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
	{"latency_p50_ms", "ms"},
	{"reorder_s", "s"},
}

// perLayer are the traced run's metrics. A layer a workload never calls
// reports 0 on that workload.
var perLayer = []metric{
	{"latency_tail_ms", "ms"},
	{"sparse.ingest_ms", "ms"},
	{"sparse.permute_ms", "ms"},
	{"graph.build_ms", "ms"},
	{"reorder.rcm_ms", "ms"},
	{"reorder.amd_ms", "ms"},
	{"reorder.gray_ms", "ms"},
	{"reorder.self_ms", "ms"},
	{"partition.gp_ms", "ms"},
	{"partition.nd_ms", "ms"},
	{"hypergraph.hp_ms", "ms"},
	{"metrics.features_ms", "ms"},
	{"cholesky.fill_ms", "ms"},
	{"cholesky.fill_ratio_amd", "ratio"},
	{"cholesky.fill_ratio_nd", "ratio"},
	{"machine.estimate_ms", "ms"},
	{"experiments.self_ms", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"spmv.plan_ms", "ms"},
	{"spmv.kernel_ms", "ms"},
	{"spmv.kernel_us.original", "us"},
	{"spmv.kernel_us.rcm", "us"},
	{"spmv.kernel_us.amd", "us"},
	{"spmv.kernel_us.nd", "us"},
	{"spmv.kernel_us.gp", "us"},
	{"spmv.gflops", "GFLOP/s"},
	{"spmv.bytes_per_nnz", "B"},
	{"solver.iterations", "count"},
	{"solver.vector_ms", "ms"},
	{"serve.spmv.queue_wait_ms", "ms"},
	{"serve.spmv.decode_ms", "ms"},
	{"serve.spmv.plan_build_ms", "ms"},
	{"serve.spmv.kernel_ms", "ms"},
	{"serve.spmv.unattributed_ms", "ms"},
	{"serve.spmv.client_ms", "ms"},
	{"serve.upload.queue_wait_ms", "ms"},
	{"serve.upload.decode_ms", "ms"},
	{"serve.upload.governor_wait_ms", "ms"},
	{"serve.upload.reorder_ms", "ms"},
	{"serve.upload.unattributed_ms", "ms"},
	{"serve.upload.client_ms", "ms"},
	{"serve.upload_p50_ms", "ms"},
	{"serve.spmv_tail_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.evictions", "count"},
	{"serve.predict_gp_share", "ratio"},
	{"serve.shed", "count"},
	{"serve.wire_kb_per_spmv", "KiB"},
	{"serve.gc_pause_ms_per_s", "ms/s"},
	{"serve.gen_lateness_p99_ms", "ms"},
	{"trace.op_ms", "ms"},
	{"trace.traced_ops", "count"},
	{"trace.dominant_share", "ratio"},
	{"trace.overhead_pct", "%"},
}

// runConfig is what every workload receives.
type runConfig struct {
	seed     int64
	seconds  float64
	trace    bool
	serveBin string // path of the built cmd/serve daemon
	out      string // directory for logs and span files, inside the checkout
}

// result is a workload's verified outcome.
type result struct {
	attempted int
	failed    int
	values    map[string]float64
	// notes are printed above the result line: sample counts, percentile
	// choices, the trace report.
	notes []string
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(runConfig) (*result, error){
	"study":       runStudy,
	"mesh-solve":  runMesh,
	"serve-mixed": runServe,
}

func main() {
	workload := flag.String("workload", "", "study, mesh-solve or serve-mixed")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 10, "measurement time")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	serveBin := flag.String("serve-bin", "", "path of the built cmd/serve daemon (serve-mixed)")
	out := flag.String("out", ".bench_build", "directory for daemon logs and span files")
	commit := flag.String("commit", "unknown", "commit the binaries were built from")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	abs, err := filepath.Abs(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, serveBin: *serveBin, out: abs}

	hostLine, err := json.Marshal(hostFacts(*commit))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("host %s\n", hostLine)

	start := time.Now()
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	for _, n := range res.notes {
		fmt.Println(n)
	}
	fmt.Printf("wall %.1fs\n", time.Since(start).Seconds())

	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	line, err := resultLine(res, want)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the final JSON line. Every metric of want must be
// set, except that a traced run reports 0 for layers the workload never
// calls.
func resultLine(res *result, want []metric) ([]byte, error) {
	ms := make(map[string]metricValue, len(want))
	for _, m := range want {
		v, ok := res.values[m.name]
		if !ok && !isLayer(m.name) {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		ms[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.failed == 0 && res.attempted > 0, res.attempted, res.failed, ms})
}

func isLayer(name string) bool {
	for _, m := range perLayer {
		if m.name == name {
			return true
		}
	}
	return false
}
