// Command serve runs the reordering-as-a-service daemon: a long-running
// HTTP/JSON server that accepts Matrix Market uploads, reorders each with
// the predicted-best ordering, caches (matrix, ordering, plan) under a
// content-hash key, and answers SpMV requests against the cached plans —
// amortizing the reordering cost the paper shows dominates one-shot use
// (Table 5).
//
// Usage:
//
//	serve [-addr :8080] [-threads N] [-reorder-workers N] [-ingest-workers N]
//	      [-seed N] [-deadline D] [-max-inflight N] [-queue N] [-max-body SIZE]
//	      [-membudget SIZE] [-cache-entries N] [-store DIR] [-recover-workers N]
//	      [-drain-timeout D] [-trace-requests N] [-events FILE] [-faults SPEC] [-v]
//
// API:
//
//	POST /matrices       Matrix Market body -> {"key","rows","cols","nnz",
//	                     "ordering","cached","reorder_seconds"}
//	GET  /matrices/{key} metadata of a cached matrix
//	POST /spmv/{key}     {"x":[...]} -> {"y":[...]} (original index space)
//	GET  /healthz        liveness (200 while serving, also during drain)
//	GET  /readyz         acceptance (503 during overload and drain)
//	GET  /metrics        Prometheus metrics (same surface as cmd/study -http)
//	GET  /debug/requests recent/slowest/errored request traces with
//	                     per-phase latency decomposition (JSON and text)
//	GET  /progress, /debug/pprof/*, /debug/vars
//
// The SpMV body is strict JSON of exactly one member: {"x":[n,...]} with
// RFC 8259 numbers and whitespace, nothing after the closing brace. Other
// members, "X", escaped keys, null and trailing bytes are 400/error, as
// are numbers beyond the float64 range (1e400). A body over -max-body is
// 413/resource on both POST routes. A y that overflows to ±Inf or NaN has
// no JSON spelling and answers 400/error naming the first such row. The
// reply is the bytes encoding/json would write, with a Content-Length.
//
// Every request carries a trace id: X-Request-Id is accepted from the
// client (or generated) and echoed on the response, and the id appears in
// /debug/requests, the request span, and the JSONL access log (-events).
// Request latency is decomposed into queue_wait / governor_wait / decode /
// reorder / plan_build / spmv / encode / store_write phases, exported per
// route as sparseorder_server_phase_seconds histograms — the "why was this
// request slow" answer the coarse per-route latency histogram cannot give.
//
// Robustness contract (see DESIGN.md, "Serving contract"): admission is a
// bounded queue (-max-inflight doing work, -queue waiting) plus the
// byte-weighted memory governor (-membudget) shared between in-flight
// reorder working sets and cache residency; arrivals beyond either bound
// are shed with 429 + Retry-After instead of queueing unboundedly. Every
// request carries a deadline (-deadline, shortenable per request with an
// X-Deadline-Ms header) propagated as a context into the cancellable
// orderings. Failures are classified with the study's
// error/timeout/canceled/panic/resource taxonomy in the JSON error body.
//
// SIGINT or SIGTERM triggers a graceful drain: /readyz flips to 503, new
// requests are rejected with 503, in-flight requests finish (bounded by
// -drain-timeout), and the process exits with the study runner's exit-code
// contract: 3 for a signal-initiated drain, 1 for fatal errors (including
// an incomplete drain).
package main

import (
	"context"
	"errors"
	"flag"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sparseorder/internal/admit"
	"sparseorder/internal/faultinject"
	"sparseorder/internal/obs"
	"sparseorder/internal/server"
)

const (
	exitOK      = 0
	exitFatal   = 1
	exitAborted = 3
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", ":8080", "listen address")
	threads := flag.Int("threads", 0, "SpMV execution threads (0 = GOMAXPROCS)")
	reorderWorkers := flag.Int("reorder-workers", 1, "workers for each upload's reordering pipeline (0 = 1/serial); any value gives byte-identical plans")
	ingestWorkers := flag.Int("ingest-workers", 0, "workers for Matrix Market decode (0 = GOMAXPROCS)")
	seed := flag.Int64("seed", 42, "partitioner seed (fixed so equal uploads give identical orderings)")
	deadline := flag.Duration("deadline", 30*time.Second, "default per-request deadline; X-Deadline-Ms can shorten it (negative = none)")
	maxInflight := flag.Int("max-inflight", 0, "requests doing work concurrently (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "requests allowed to wait for a work slot before shedding (0 = 2x max-inflight)")
	maxBody := flag.String("max-body", "256MiB", "request body cap (uploads and SpMV bodies)")
	memBudget := flag.String("membudget", "auto", `byte budget shared by cache residency and in-flight reorders: "auto" (from GOMEMLIMIT), "off", or a size like 512MiB`)
	cacheEntries := flag.Int("cache-entries", 256, "plan cache entry bound")
	storeDir := flag.String("store", "", "durable plan store directory: uploads persist here and a restart recovers them (empty = in-memory only)")
	recoverWorkers := flag.Int("recover-workers", 0, "parallel entry loads during warm-restart recovery (0 = GOMAXPROCS)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long a signal-initiated drain waits for in-flight requests")
	traceRequests := flag.Int("trace-requests", obs.DefaultTraceCap, "completed request traces retained for /debug/requests (negative = tracing off)")
	eventsPath := flag.String("events", "", "append structured JSONL span, failure and access events to this file")
	faults := flag.String("faults", os.Getenv("SPARSEORDER_FAULTS"), "deterministic fault-injection spec (default $SPARSEORDER_FAULTS)")
	verbose := flag.Bool("v", false, "log per-request admission anomalies")
	flag.Parse()

	level := obs.LevelWarn
	if *verbose {
		level = obs.LevelInfo
	}
	lg := obs.NewLogger(os.Stderr, level, "serve: ")

	plan, err := faultinject.ParseSpec(*faults)
	if err != nil {
		lg.Errorf("-faults: %v", err)
		return exitFatal
	}
	if plan != nil {
		faultinject.Activate(plan)
		lg.Printf("fault injection armed: %s", *faults)
	}

	o := &obs.Obs{Metrics: obs.NewRegistry(), Log: lg}
	if *traceRequests >= 0 {
		o.Requests = obs.NewTraceRing(*traceRequests)
	}
	o.Metrics.AddCollector(obs.RuntimeCollector())
	if plan != nil {
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

	cfg := server.Config{
		Threads:        *threads,
		ReorderWorkers: *reorderWorkers,
		IngestWorkers:  *ingestWorkers,
		Seed:           *seed,
		Deadline:       *deadline,
		MaxInflight:    *maxInflight,
		Queue:          *queue,
		CacheEntries:   *cacheEntries,
		StoreDir:       *storeDir,
		RecoverWorkers: *recoverWorkers,
		Obs:            o,
		Logf:           lg.Infof,
	}
	if cfg.MaxBody, err = admit.ParseByteSize(*maxBody); err != nil {
		lg.Errorf("-max-body: %v", err)
		return exitFatal
	}
	if cfg.MemBudget, err = admit.ParseBudget(*memBudget); err != nil {
		lg.Errorf("-membudget: %v", err)
		return exitFatal
	}

	srv, err := server.New(cfg)
	if err != nil {
		lg.Errorf("%v", err)
		return exitFatal
	}
	defer srv.Close()
	if g := srv.Governor(); g != nil {
		lg.Printf("memory governor: %s budget", admit.FormatBytes(g.Budget()))
	} else {
		lg.Printf("memory governor off (cache bounded to %d entries)", *cacheEntries)
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	lg.Printf("serving on %s (POST /matrices, POST /spmv/{key}; /metrics, /debug/requests, /healthz, /readyz)", *addr)

	// Warm-restart recovery runs behind the live listener: /readyz answers
	// "recovering" (503) until the persisted plans are rebuilt, while
	// /healthz — and the API itself, at worst cache-cold — serve throughout.
	rctx, rcancel := context.WithCancel(context.Background())
	defer rcancel()
	if *storeDir != "" {
		lg.Printf("durable plan store: %s (recovering in background)", *storeDir)
		go func() {
			st, err := srv.Recover(rctx)
			if err != nil && rctx.Err() == nil {
				lg.Errorf("store recovery: %v (serving cold)", err)
				return
			}
			lg.Printf("store recovery: %d recovered, %d quarantined, %d skipped of %d entries in %.3fs",
				st.Recovered, st.Quarantined, st.Skipped, st.Scanned, st.Seconds)
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		// ListenAndServe never returns nil; anything before a signal is a
		// bind or accept failure.
		lg.Errorf("%v", err)
		return exitFatal
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills us

	// Graceful drain: stop intake (readyz 503, API 503), finish in-flight
	// work, then close the listener. The order matters — BeginDrain first,
	// so requests queued inside the server are released with 503 before
	// Shutdown starts waiting on connections.
	lg.Printf("signal received; draining (timeout %v)", *drainTimeout)
	rcancel() // stop any in-progress recovery; its entries stay on disk
	srv.BeginDrain()
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	code := exitAborted
	if err := srv.WaitIdle(dctx); err != nil {
		lg.Errorf("%v", err)
		code = exitFatal
	}
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		lg.Errorf("shutdown: %v", err)
		code = exitFatal
	}
	<-errc // ListenAndServe has returned ErrServerClosed
	lg.Printf("drained; exiting %d", code)
	return code
}
