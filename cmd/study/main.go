// Command study regenerates the tables and figures of "Bringing Order to
// Sparsity" (SC '23) from the synthetic collection and machine models.
//
// Usage:
//
//	study [-exp all|fig1|fig2|fig3|fig4|fig5|fig6|table3|table4|table5|densecsr|benchreorder|benchingest|benchobs|benchsolve|artifact]
//	      [-scale test|study|large] [-seed N] [-out DIR] [-v]
//	      [-workers N] [-reorder-workers N] [-ingest-workers N] [-timeout D]
//	      [-checkpoint FILE] [-resume] [-retries N] [-membudget SIZE]
//	      [-http ADDR] [-http-linger D] [-events FILE] [-faults SPEC]
//	      [-cpuprofile FILE] [-memprofile FILE] [-trace FILE]
//	      [matrix.mtx ...]
//
// With no positional arguments the study runs on the generated synthetic
// collection selected by -scale and -seed. Positional arguments name
// Matrix Market files to evaluate instead; they are ingested through the
// parallel streaming reader with -ingest-workers goroutines per file
// (default 0 = GOMAXPROCS) and evaluated like collection matrices.
// Ingestion output is byte-identical at any worker count.
//
// Matrices are evaluated concurrently by -workers workers (default
// GOMAXPROCS); within each matrix, the reordering pipeline (graph
// construction, RCM, permutation application, features) uses
// -reorder-workers goroutines (default 1, 0 = GOMAXPROCS). Output is
// byte-identical for any worker counts. A matrix whose evaluation fails
// or exceeds -timeout is reported as a warning and skipped instead of
// aborting the study; -retries re-attempts timeouts and panics with a
// doubling backoff.
//
// With -checkpoint, every completed matrix is appended to FILE as a
// fsynced JSONL record; -resume reloads FILE (it must have been written
// by an identical configuration) and skips the matrices it records, so a
// killed run continues where it stopped and produces byte-identical
// results. All artifact files are written atomically (temp file + rename).
//
// -membudget bounds the estimated working-set bytes of concurrently
// admitted matrices: "auto" (the default) derives the budget from
// GOMEMLIMIT when one is set (and disables the governor otherwise), "off"
// disables it explicitly, and a size such as 512MiB or 2g sets it
// directly. A matrix whose estimate exceeds the budget is degraded — run
// alone with the worker pool drained — and one that cannot fit even alone
// is skipped with failure class "resource" instead of risking the OOM
// killer.
//
// -faults (default $SPARSEORDER_FAULTS) arms the deterministic
// fault-injection harness with a spec like
// "seed=7;reorder/order=error:0.4;journal/sync=error:1:5"; see package
// faultinject. It exists to rehearse crash recovery: injected failures
// exercise the same retry, journal and atomic-write paths as real ones,
// and the per-point fired counters appear on /metrics.
//
// With -http, a live telemetry endpoint is served on ADDR for the
// duration of the run: /metrics (Prometheus text format: per-phase span
// latency histograms, matrix outcome/failure-class counters),
// /progress (JSON: matrices done/queued/failed, ETA, current matrix per
// worker), /debug/pprof/* and /debug/vars. -http-linger keeps the
// endpoint alive for D after the run finishes so short runs can still be
// scraped. With -events, every span open/close and failure is appended
// to FILE as structured JSONL. -cpuprofile, -memprofile and -trace
// write the corresponding runtime profiles; the files are finalised on
// every exit path, including interrupt (exit 3) and partial failure
// (exit 2).
//
// The bench experiments each print one committed benchmark document (also
// written to -out DIR when given), and -repeats sets their best-of and
// median counts; the benches table in main.go lists them. -exp
// benchreorder measures the reordering hot path serial vs parallel,
// including the five ordering pipelines rcm/amd/nd/gp/hp, and prints
// BENCH_reorder.json. -exp benchingest measures Matrix Market ingestion at
// 1, 2 and 4 workers (and GOMAXPROCS) and prints BENCH_ingest.json. Both
// commit numbers taken at -scale study; -scale test shrinks their
// matrices to CI-smoke sizes. -exp benchobs measures the observability
// layer's disabled-path overhead and prints BENCH_obs.json. -exp
// benchsolve splits the CG solves of perfbench's mesh-solve workload (the
// 32³ mesh scrambled with -seed and its RCM/AMD/ND/GP orderings) into
// multiply and vector sweep time, -repeats rounds, and prints
// BENCH_solve.json. -scale does not apply to benchobs or benchsolve.
//
// Results are printed to stdout; with -out, artifact-format data files
// (one per machine and kernel, as in the paper's Zenodo artifact) are also
// written to DIR, together with failures.txt summarising any failed
// matrices.
//
// Exit codes: 0 success; 1 fatal error; 2 the study completed but some
// matrices failed; 3 the run was aborted (SIGINT or SIGTERM; both drain
// gracefully, finalise profiles and leave a resumable checkpoint).
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"sparseorder/internal/admit"
	"sparseorder/internal/experiments"
	"sparseorder/internal/faultinject"
	"sparseorder/internal/fsutil"
	"sparseorder/internal/gen"
	"sparseorder/internal/machine"
	"sparseorder/internal/obs"
)

// Exit codes; distinct values let scripts tell partial results from an
// aborted run.
const (
	exitOK         = 0
	exitFatal      = 1
	exitSomeFailed = 2
	exitAborted    = 3
)

func main() {
	os.Exit(run())
}

func run() (code int) {
	exp := flag.String("exp", "all", "experiment to run: all, fig1..fig6, table3..table5, densecsr, findings, artifact, "+benchNames())
	scaleName := flag.String("scale", "test", "collection scale: test, study or large")
	seed := flag.Int64("seed", 42, "collection seed")
	out := flag.String("out", "", "directory for artifact-format data files")
	verbose := flag.Bool("v", false, "log per-matrix progress to stderr")
	repeats := flag.Int("repeats", 10, "host SpMV timing repetitions (best run is kept); also the repeat count of the bench experiments")
	workers := flag.Int("workers", 0, "concurrent matrix evaluations (0 = GOMAXPROCS)")
	reorderWorkers := flag.Int("reorder-workers", 1, "workers for the per-matrix reordering pipeline (0 = GOMAXPROCS, 1 = serial); any value gives identical results")
	ingestWorkers := flag.Int("ingest-workers", 0, "workers for Matrix Market file ingestion (0 = GOMAXPROCS); any value gives identical matrices")
	timeout := flag.Duration("timeout", 0, "per-matrix evaluation timeout, e.g. 90s (0 = none)")
	checkpoint := flag.String("checkpoint", "", "journal file recording each completed matrix for crash-safe resume")
	resume := flag.Bool("resume", false, "resume from the -checkpoint journal, skipping matrices it records")
	retries := flag.Int("retries", 0, "additional attempts for matrices failing by timeout or panic")
	memBudget := flag.String("membudget", "auto", `working-set byte budget for concurrent matrices: "auto" (from GOMEMLIMIT), "off", or a size like 512MiB`)
	faults := flag.String("faults", os.Getenv("SPARSEORDER_FAULTS"), "deterministic fault-injection spec, e.g. seed=7;reorder/order=error:0.5 (default $SPARSEORDER_FAULTS)")
	httpAddr := flag.String("http", "", "serve /metrics, /progress and /debug/pprof on this address while the run is live")
	httpLinger := flag.Duration("http-linger", 0, "keep the -http endpoint alive this long after the run finishes")
	eventsPath := flag.String("events", "", "append structured JSONL span and failure events to this file")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	tracePath := flag.String("trace", "", "write a runtime execution trace to this file")
	flag.Parse()

	// Level gating preserves the historical contract: per-matrix progress
	// is -v only, while warnings, errors and artifact announcements
	// (Printf) always reach stderr with the same "study: " prefix.
	level := obs.LevelWarn
	if *verbose {
		level = obs.LevelInfo
	}
	lg := obs.NewLogger(os.Stderr, level, "study: ")

	// The linger/close defer is registered first so it runs last: profiles
	// and the event log are finalised before the endpoint idles, and the
	// server stays scrapeable until the very end of the linger window. The
	// wait watches a dedicated signal channel, NOT the run's signal
	// context: that context's deferred stop() runs before this defer and
	// cancels it on every exit, which would silently skip the linger.
	var srv *http.Server
	sigC := make(chan os.Signal, 1)
	defer func() {
		if srv == nil {
			return
		}
		if *httpLinger > 0 {
			lg.Printf("run finished (exit %d); -http endpoint stays up for %v", code, *httpLinger)
			select {
			case <-time.After(*httpLinger):
			case <-sigC: // a signal (including one that aborted the run) cuts the linger short
			}
		}
		srv.Close()
	}()

	prof, err := obs.StartProfiles(*cpuprofile, *memprofile, *tracePath)
	if err != nil {
		lg.Errorf("%v", err)
		return exitFatal
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			lg.Errorf("profile: %v", err)
		}
	}()

	scale, err := gen.ParseScale(*scaleName)
	if err != nil {
		lg.Errorf("-scale: %v", err)
		return exitFatal
	}
	rw := *reorderWorkers
	if rw == 0 {
		rw = runtime.GOMAXPROCS(0)
	}
	cfg := experiments.Config{
		Scale:          scale,
		Seed:           *seed,
		Repeats:        *repeats,
		Workers:        *workers,
		ReorderWorkers: rw,
		IngestWorkers:  *ingestWorkers,
		Timeout:        *timeout,
		Retries:        *retries,
		Logf:           lg.Infof, // level-gated: silent unless -v
	}
	if cfg.MemBudget, err = admit.ParseBudget(*memBudget); err != nil {
		lg.Errorf("-membudget: %v", err)
		return exitFatal
	}

	// Fault injection is armed before any instrumented code can run, so
	// the spec covers journal creation and corpus loading too.
	plan, err := faultinject.ParseSpec(*faults)
	if err != nil {
		lg.Errorf("-faults: %v", err)
		return exitFatal
	}
	if plan != nil {
		// The plan stays armed for the life of the process — never
		// deferred-deactivated here, or the fired counters would vanish
		// from /metrics during the -http-linger window.
		faultinject.Activate(plan)
		lg.Printf("fault injection armed: %s", *faults)
	}

	// The observability sinks are built only when a consumer asked for
	// them; otherwise cfg.Obs stays nil and the instrumented stack runs on
	// its zero-allocation disabled path.
	if *httpAddr != "" || *eventsPath != "" {
		o := &obs.Obs{
			Metrics:  obs.NewRegistry(),
			Progress: obs.NewProgress(),
			Log:      lg,
		}
		o.Metrics.AddCollector(obs.RuntimeCollector())
		if plan != nil {
			// Fired-counter truth lives in the plan; render it at scrape
			// time instead of mirroring every hit into registry handles.
			o.Metrics.AddCollector(faultinject.WritePrometheus)
		}
		if *eventsPath != "" {
			ev, err := obs.OpenEventLog(*eventsPath)
			if err != nil {
				lg.Errorf("%v", err)
				return exitFatal
			}
			defer func() {
				if err := ev.Close(); err != nil {
					lg.Errorf("event log: %v", err)
				}
			}()
			o.Events = ev
			lg.AttachEvents(ev)
		}
		if *httpAddr != "" {
			s, addr, err := obs.Serve(*httpAddr, o)
			if err != nil {
				lg.Errorf("%v", err)
				return exitFatal
			}
			srv = s
			lg.Printf("telemetry on http://%s/ (metrics, progress, pprof)", addr)
		}
		cfg.Obs = o
	}

	if *resume && *checkpoint == "" {
		lg.Errorf("-resume requires -checkpoint")
		return exitFatal
	}
	if *checkpoint != "" {
		j, err := openJournal(*checkpoint, *resume, cfg)
		if err != nil {
			lg.Errorf("%v", err)
			return exitFatal
		}
		// A journal that cannot be synced and closed is not a trustworthy
		// checkpoint, whatever the run printed: surface the error and force
		// the fatal exit code so callers do not -resume from it blindly.
		defer func() {
			if cerr := j.Close(); cerr != nil {
				lg.Errorf("%v", cerr)
				code = exitFatal
			}
		}()
		cfg.Journal = j
	}

	// Ctrl-C or SIGTERM (the shutdown signal sent by kill, timeout(1) and
	// every container runtime) cancels the study; workers stop at their
	// next checkpoint and the run exits 3 with a resumable journal.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	signal.Notify(sigC, os.Interrupt, syscall.SIGTERM)

	want := func(name string) bool { return *exp == "all" || *exp == name }

	// Experiments that need the full study run.
	bench := findBench(*exp)
	needStudy := *exp == "all" || (*out != "" && bench == nil)
	for _, name := range []string{"fig2", "fig3", "fig5", "fig6", "table3", "table4", "artifact", "findings"} {
		if *exp == name {
			needStudy = true
		}
	}
	var s *experiments.StudyResult
	if needStudy {
		start := time.Now()
		var err error
		if flag.NArg() > 0 {
			// Positional arguments switch the study to a Matrix Market file
			// corpus: ingest every file through the parallel pipeline, then
			// evaluate the result exactly like the generated collection.
			ms, lerr := experiments.LoadMatrixFiles(ctx, cfg, flag.Args())
			if lerr != nil {
				lg.Errorf("%v", lerr)
				return exitFatal
			}
			s, err = experiments.RunStudyMatrices(ctx, cfg, ms)
		} else {
			s, err = experiments.RunStudyContext(ctx, cfg)
		}
		if errors.Is(err, context.Canceled) {
			lg.Warnf("run aborted; completed matrices are in the checkpoint journal (use -resume to continue)")
			return exitAborted
		}
		if err != nil {
			lg.Errorf("%v", err)
			return exitFatal
		}
		for i := range s.Failures {
			lg.Warnf("warning: matrix failed: %v", &s.Failures[i])
		}
		if len(s.Matrices) == 0 {
			lg.Errorf("no matrix evaluated successfully (%d failures)", len(s.Failures))
			return exitFatal
		}
		lg.Infof("study: %d matrices, %d failures in %v",
			len(s.Matrices), len(s.Failures), time.Since(start).Round(time.Millisecond))
	}

	emit := func(text string, err error) {
		if err != nil {
			lg.Errorf("%v", err)
			code = exitFatal
			return
		}
		fmt.Println(text)
	}

	if want("fig1") {
		emit(experiments.RenderFig1(cfg))
	}
	if want("fig2") {
		fmt.Println(experiments.RenderFig2(s))
	}
	if want("table3") {
		fmt.Println(experiments.RenderTable3(s))
	}
	if want("fig3") {
		fmt.Println(experiments.RenderFig3(s))
	}
	if want("table4") {
		fmt.Println(experiments.RenderTable4(s))
	}
	if want("fig4") {
		emit(experiments.RenderFig4(cfg))
	}
	if want("fig5") {
		emit(experiments.RenderFig5(s))
	}
	if want("fig6") {
		fmt.Println(experiments.RenderFig6(s))
	}
	if want("table5") {
		emit(experiments.RenderTable5(cfg))
	}
	if want("densecsr") {
		emit(experiments.RenderDenseCSRRef(cfg))
	}
	if code != exitOK {
		return code
	}
	// The bench experiments are explicit-only: they measure wall clock on
	// fixed-size inputs and would slow "all" runs without adding to the
	// tables.
	if bench != nil {
		doc, err := bench.run(*seed, scale, *repeats)
		if err != nil {
			lg.Errorf("%v", err)
			return exitFatal
		}
		text, err := experiments.RenderBench(doc)
		if err != nil {
			lg.Errorf("%v", err)
			return exitFatal
		}
		fmt.Print(text)
		if werr := writeBenchFile(*out, bench.file, text, lg); werr != nil {
			return exitFatal
		}
	}
	if want("findings") {
		emit(experiments.RenderFindings(s))
	}
	if code != exitOK {
		return code
	}

	if s != nil && (*out != "" || *exp == "artifact") {
		dir := *out
		if dir == "" {
			dir = "artifact"
		}
		if err := writeArtifacts(dir, s); err != nil {
			lg.Errorf("%v", err)
			return exitFatal
		}
		lg.Printf("wrote artifact files to %s", dir)
	}

	if s != nil && len(s.Failures) > 0 {
		fmt.Fprintf(os.Stderr, "study: %d of %d matrices failed:\n",
			len(s.Failures), len(s.Failures)+len(s.Matrices))
		for i := range s.Failures {
			f := &s.Failures[i]
			msg := f.Error()
			if nl := strings.IndexByte(msg, '\n'); nl >= 0 {
				msg = msg[:nl] // stacks go to failures.txt, not the summary
			}
			fmt.Fprintf(os.Stderr, "  %s (class %s, %d attempts): %s\n",
				f.Name, f.Class, f.Attempts, msg)
		}
		return exitSomeFailed
	}
	return code
}

// benchExp is one bench experiment: -exp name runs it and prints the
// document, and -out DIR also writes it to DIR/file.
type benchExp struct {
	name, file string
	run        func(seed int64, scale gen.Scale, repeats int) (any, error)
}

// benches lists every bench experiment; -exp, its help text and the
// needStudy test all read it.
var benches = []benchExp{
	{"benchreorder", "BENCH_reorder.json", func(seed int64, scale gen.Scale, repeats int) (any, error) {
		return experiments.RunReorderBench(experiments.ReorderBenchMatrices(seed, scale), benchWorkerCounts(), repeats)
	}},
	{"benchingest", "BENCH_ingest.json", func(seed int64, scale gen.Scale, repeats int) (any, error) {
		return experiments.RunIngestBench(experiments.IngestBenchMatrices(seed, scale), benchWorkerCounts(), repeats)
	}},
	{"benchobs", "BENCH_obs.json", func(seed int64, _ gen.Scale, repeats int) (any, error) {
		b, err := experiments.RunObsBench(seed, repeats)
		if err != nil {
			return nil, err
		}
		if b.Serving, b.ServingPhases, err = RunServingBench(); err != nil {
			return nil, err
		}
		return b, nil
	}},
	{"benchsolve", "BENCH_solve.json", func(seed int64, _ gen.Scale, repeats int) (any, error) {
		return experiments.RunSolveBench(experiments.SolveBenchMatrix(seed), seed, repeats)
	}},
}

// findBench returns the bench experiment named name, or nil.
func findBench(name string) *benchExp {
	for i := range benches {
		if benches[i].name == name {
			return &benches[i]
		}
	}
	return nil
}

// benchNames lists the bench experiments for the -exp help text.
func benchNames() string {
	names := make([]string, len(benches))
	for i, b := range benches {
		names[i] = b.name
	}
	return strings.Join(names, ", ")
}

// benchWorkerCounts are the worker counts the scaling benches measure: the
// serial baseline, 2 and 4, and GOMAXPROCS when it is none of those.
func benchWorkerCounts() []int {
	counts := []int{1, 2, 4}
	if g := runtime.GOMAXPROCS(0); !slices.Contains(counts, g) {
		counts = append(counts, g)
	}
	return counts
}

// writeBenchFile writes a benchmark JSON document under -out (no-op when
// -out is empty), announcing the path on success.
func writeBenchFile(dir, name, text string, lg *obs.Logger) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		lg.Errorf("%v", err)
		return err
	}
	path := filepath.Join(dir, name)
	if err := fsutil.WriteFileAtomic(path, []byte(text), 0o644); err != nil {
		lg.Errorf("%v", err)
		return err
	}
	lg.Printf("wrote %s", path)
	return nil
}

// openJournal creates or (with resume) reloads the checkpoint journal.
// Resuming with no journal on disk starts a fresh one, so the same command
// line works for the first run and every restart.
func openJournal(path string, resume bool, cfg experiments.Config) (*experiments.Journal, error) {
	if resume {
		if _, err := os.Stat(path); err == nil {
			return experiments.LoadJournal(path, cfg)
		} else if !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
	}
	return experiments.CreateJournal(path, cfg)
}

// writeArtifacts renders every artifact file atomically: readers (and
// interrupted runs) see either the complete previous file or the complete
// new one, never a torn write.
func writeArtifacts(dir string, s *experiments.StudyResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, render func(*bytes.Buffer) error) error {
		var buf bytes.Buffer
		if err := render(&buf); err != nil {
			return err
		}
		return fsutil.WriteFileAtomic(filepath.Join(dir, name), buf.Bytes(), 0o644)
	}
	for _, mc := range machine.Table2 {
		for _, k := range []machine.Kernel{machine.Kernel1D, machine.Kernel2D} {
			name := fmt.Sprintf("csr%s_%s.txt", strings.ToLower(k.String()),
				strings.ReplaceAll(strings.ToLower(mc.Name), " ", ""))
			mcName, kk := mc.Name, k
			if err := write(name, func(buf *bytes.Buffer) error {
				return experiments.WriteArtifactFile(buf, s, mcName, kk)
			}); err != nil {
				return err
			}
		}
	}
	// Gnuplot pipeline for Figures 2 and 3, as in the paper's artifact.
	for _, k := range []machine.Kernel{machine.Kernel1D, machine.Kernel2D} {
		fig := "fig2"
		if k == machine.Kernel2D {
			fig = "fig3"
		}
		datName := fig + "_speedups.dat"
		kk := k
		if err := write(datName, func(buf *bytes.Buffer) error {
			return experiments.WriteSpeedupDat(buf, s, kk)
		}); err != nil {
			return err
		}
		title := "Speedup of " + k.String() + " SpMV after reordering"
		figName, dat := fig, datName
		if err := write(fig+".gp", func(buf *bytes.Buffer) error {
			return experiments.WriteSpeedupGnuplot(buf, dat, figName+".png", title)
		}); err != nil {
			return err
		}
	}
	return write("failures.txt", func(buf *bytes.Buffer) error {
		return experiments.WriteFailureReport(buf, s.Failures)
	})
}
