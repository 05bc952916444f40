package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sparseorder/internal/admit"
	"sparseorder/internal/failure"
	"sparseorder/internal/faultinject"
	"sparseorder/internal/obs"
	"sparseorder/internal/reorder"
	"sparseorder/internal/sparse"
	"sparseorder/internal/spmv"
)

// Config parameterises the daemon. The zero value serves with GOMAXPROCS
// SpMV threads, a 30s default deadline, a GOMAXPROCS-deep work pool with a
// 2× queue, a 256 MiB body cap and no memory budget.
type Config struct {
	// Threads is the SpMV execution width and the thread count plans are
	// built for. 0 means GOMAXPROCS.
	Threads int
	// ReorderWorkers bounds the parallel reordering pipeline per upload
	// (reorder.Options.Workers). 0 means 1 (serial): uploads already run
	// concurrently, so per-upload parallelism is opt-in. Any value
	// produces byte-identical reordered matrices (the determinism
	// contract), so cached and recomputed plans agree exactly.
	ReorderWorkers int
	// IngestWorkers is the Matrix Market decode parallelism
	// (sparse.ReadMatrixMarketCtx). 0 means GOMAXPROCS.
	IngestWorkers int
	// Seed drives the randomized partitioner components; fixed per daemon
	// so equal uploads yield byte-identical orderings. Default 42.
	Seed int64
	// Deadline caps each request's processing time; requests may shorten
	// (never extend) it per-request with an X-Deadline-Ms header. The
	// deadline propagates as a context into the cancellable orderings, so
	// a wedged reorder stops within bounded work. 0 defaults to 30s;
	// negative disables.
	Deadline time.Duration
	// MaxInflight bounds requests doing work concurrently; 0 means
	// GOMAXPROCS.
	MaxInflight int
	// Queue bounds requests waiting for a work slot; arrivals beyond it
	// are shed with 429. 0 means 2×MaxInflight; negative means no queue
	// (every busy arrival sheds).
	Queue int
	// MaxBody caps upload bodies in bytes. 0 means 256 MiB.
	MaxBody int64
	// MemBudget is the byte budget of the admission governor shared by
	// cache residency and in-flight reorder working sets: >0 literal,
	// 0 auto from GOMEMLIMIT, <0 off (see admit.NewGovernor).
	MemBudget int64
	// CacheEntries bounds the plan cache's entry count (the only bound
	// when the governor is off). 0 means 256.
	CacheEntries int
	// StoreDir, when non-empty, enables the durable plan store: every
	// admitted upload is persisted under its content-hash key and a
	// restarted daemon recovers its plans from disk (call Recover after
	// New). Empty means in-memory only — a restart forgets everything.
	StoreDir string
	// RecoverWorkers bounds the parallel payload loads during
	// warm-restart recovery. 0 means GOMAXPROCS; negative means serial.
	RecoverWorkers int
	// Obs receives request spans and metrics; nil disables telemetry.
	Obs *obs.Obs
	// Logf, when set, receives one line per admission anomaly (sheds,
	// drain rejections) and lifecycle transition.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Threads <= 0 {
		c.Threads = runtime.GOMAXPROCS(0)
	}
	if c.ReorderWorkers <= 0 {
		c.ReorderWorkers = 1
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Deadline == 0 {
		c.Deadline = 30 * time.Second
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = runtime.GOMAXPROCS(0)
	}
	if c.Queue == 0 {
		c.Queue = 2 * c.MaxInflight
	}
	if c.Queue < 0 {
		c.Queue = 0
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 256 << 20
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	return c
}

// Server is the reordering-as-a-service daemon: upload matrices, get SpMV
// answers from cached plans. See the package comment for the robustness
// contract; construct with New, serve Handler, stop with BeginDrain +
// WaitIdle.
type Server struct {
	cfg   Config
	gov   *admit.Governor
	cache *Cache
	store *store // nil without -store; nil-safe methods

	// recovering is true from construction with a store until Recover
	// completes; /readyz answers 503 "recovering" while it holds so load
	// balancers hold traffic during warm-start. recoverRemaining counts
	// store entries not yet processed, for the /readyz body.
	recovering       atomic.Bool
	recoverRemaining atomic.Int64

	slots    chan struct{}
	queued   atomic.Int64
	inflight atomic.Int64

	draining  atomic.Bool
	drainCh   chan struct{}
	drainOnce sync.Once

	shedC  *obs.Counter // sparseorder_server_shed_total
	drainC *obs.Counter // sparseorder_server_drain_rejected_total

	// routes holds the per-route pre-resolved metric handles and trace
	// sinks (nil per entry when Obs is disabled); the request path never
	// performs a registry lookup.
	routes map[string]*requestTraceSinks
}

// New builds the daemon from cfg. The only failure mode is an unusable
// StoreDir (unwritable, not a directory); a storeless config never errs.
// With a store configured the daemon starts in the recovering state —
// call Recover (typically in a goroutine, with the HTTP listener already
// up) to load persisted plans and flip /readyz to ready.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		gov:     admit.NewGovernor(cfg.MemBudget, cfg.Obs),
		slots:   make(chan struct{}, cfg.MaxInflight),
		drainCh: make(chan struct{}),
	}
	s.cache = NewCache(s.gov, cfg.CacheEntries, cfg.Obs)
	if cfg.StoreDir != "" {
		st, err := openStore(cfg.StoreDir, cfg.Seed, cfg.Threads, cfg.Obs, cfg.Logf)
		if err != nil {
			return nil, err
		}
		s.store = st
		s.recovering.Store(true)
	}
	s.routes = map[string]*requestTraceSinks{}
	if o := cfg.Obs; o != nil && o.Metrics != nil {
		s.shedC = o.Metrics.Counter("sparseorder_server_shed_total",
			"requests shed with 429 because the queue or memory governor was saturated")
		s.drainC = o.Metrics.Counter("sparseorder_server_drain_rejected_total",
			"requests rejected with 503 because the daemon was draining")
		for _, route := range []string{"upload", "spmv"} {
			s.routes[route] = &requestTraceSinks{
				metrics: newRouteMetrics(o.Metrics, route),
				ring:    o.Requests,
				events:  o.Events,
			}
		}
		o.Metrics.AddCollector(s.stateCollector())
	}
	return s, nil
}

// Governor exposes the admission governor (nil when no budget applies);
// cmd/serve reports it at startup.
func (s *Server) Governor() *admit.Governor { return s.gov }

// BeginDrain flips the daemon into draining: /readyz goes 503, new API
// requests are rejected with 503, queued requests waiting for a work slot
// are released with 503, and in-flight requests run to completion.
// Idempotent.
func (s *Server) BeginDrain() {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		close(s.drainCh)
		if s.cfg.Logf != nil {
			s.cfg.Logf("draining: intake stopped, %d in flight", s.inflight.Load())
		}
	})
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// WaitIdle blocks until no request is in flight or ctx expires; the drain
// step between BeginDrain and process exit.
func (s *Server) WaitIdle(ctx context.Context) error {
	for s.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			return fmt.Errorf("server: drain incomplete, %d requests still in flight: %w",
				s.inflight.Load(), ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
	return nil
}

// Handler returns the daemon's full route surface:
//
//	POST /matrices       upload a Matrix Market body; reorder + cache
//	GET  /matrices/{key} metadata of a cached matrix
//	POST /spmv/{key}     {"x":[...]} -> {"y":[...]} against the cached plan
//	GET  /healthz        process liveness (200 while serving or draining)
//	GET  /readyz         load acceptance (503 during overload and drain)
//
// plus, when cfg.Obs is set, the shared telemetry surface (/metrics,
// /progress, /debug/pprof/*, /debug/vars) mounted via obs.Mount — the same
// endpoints cmd/study -http serves.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /matrices", s.guard("upload", s.handleUpload))
	mux.HandleFunc("GET /matrices/{key}", s.handleMeta)
	mux.HandleFunc("POST /spmv/{key}", s.guard("spmv", s.handleSpMV))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	if s.cfg.Obs != nil {
		s.cfg.Obs.Mount(mux)
	}
	return mux
}

// apiError is a classified failure response: the JSON body carries the
// study's failure-class taxonomy so clients can tell a retryable timeout
// from a deterministic error or a permanent resource refusal.
type apiError struct {
	Error string               `json:"error"`
	Class failure.FailureClass `json:"class"`
}

// statusClientClosed is nginx's 499: the client went away (request
// context canceled) before a response was produced.
const statusClientClosed = 499

// retryAfterSeconds is the Retry-After hint, in seconds, sent with every
// 429 and 503.
const retryAfterSeconds = "1"

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, status int, class failure.FailureClass, msg string) {
	if sw, ok := w.(*statusWriter); ok {
		sw.class, sw.errmsg = class, msg
	}
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	writeJSON(w, status, apiError{Error: msg, Class: class})
}

// writeBodyError answers a failed request-body read or parse. A body over
// the MaxBody cap is a permanent 413/resource refusal on every route;
// anything else (a malformed or truncated body) is classified as usual,
// 400 for the deterministic client error.
func (s *Server) writeBodyError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		s.writeError(w, http.StatusRequestEntityTooLarge, failure.FailResource,
			fmt.Sprintf("request body exceeds the %d-byte cap", mbe.Limit))
		return
	}
	s.writeClassified(w, err, http.StatusBadRequest)
}

// classStatus maps a classified evaluation failure onto an HTTP status.
// errStatus is the status of the deterministic-error class, which differs
// by site: a failing decode is the client's fault (400), a failing reorder
// or SpMV is ours (500).
func classStatus(class failure.FailureClass, errStatus int) int {
	switch class {
	case failure.FailTimeout:
		return http.StatusGatewayTimeout
	case failure.FailCanceled:
		return statusClientClosed
	case failure.FailResource:
		return http.StatusRequestEntityTooLarge
	case failure.FailPanic:
		return http.StatusInternalServerError
	default:
		return errStatus
	}
}

// writeClassified classifies err through the study taxonomy and writes the
// mapped response.
func (s *Server) writeClassified(w http.ResponseWriter, err error, errStatus int) {
	class := failure.Classify(err)
	msg := err.Error()
	if class == failure.FailPanic {
		// Stacks go to the log, not the wire.
		if pe := (*failure.PanicError)(nil); errors.As(err, &pe) {
			msg = "panic: " + pe.Value
		}
	}
	s.writeError(w, classStatus(class, errStatus), class, msg)
}

// statusWriter captures the response code — plus, for classified error
// responses, the failure class and message — so the guard's finish step
// can stamp the request trace without threading state through handlers.
type statusWriter struct {
	http.ResponseWriter
	status int
	class  failure.FailureClass
	errmsg string
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// guard wraps a work handler with the whole robustness envelope, outermost
// first: panic containment (a handler panic — injected or organic — is
// classified FailPanic and answered 500, never a torn connection), the
// request trace (id accept/generate + echo, per-phase and total latency
// into pre-resolved histograms, the trace ring and the access log), drain
// rejection, the bounded queue with load shedding, the per-request
// deadline, and the in-flight count the drain waits on. Every metric
// handle is resolved at construction; with cfg.Obs nil no trace exists
// and the envelope adds zero allocations.
func (s *Server) guard(route string, h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	sinks := s.routes[route] // nil when Obs is disabled
	spanName := "server/" + route
	return func(rw http.ResponseWriter, r *http.Request) {
		w := &statusWriter{ResponseWriter: rw}
		rt := s.startTrace(sinks, spanName, r)
		if rt != nil {
			// Echo the accepted-or-generated id before any body bytes.
			w.Header().Set(obs.RequestIDHeader, rt.id())
		}
		defer func() {
			if v := recover(); v != nil {
				pe := &failure.PanicError{Value: fmt.Sprint(v), Stack: string(debug.Stack())}
				if s.cfg.Logf != nil {
					s.cfg.Logf("%s [%s]: %v\n%s", route, rt.id(), v, pe.Stack)
				}
				if w.status == 0 { // headers not sent yet; answer properly
					s.writeClassified(w, pe, http.StatusInternalServerError)
				}
			}
			rt.finish(w.status, string(w.class), w.errmsg)
		}()

		// Drain gate: once BeginDrain ran, no new work is admitted. The
		// check sits inside the in-flight window so WaitIdle also covers
		// rejections still writing their 503.
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		if s.draining.Load() {
			if s.drainC != nil {
				s.drainC.Inc()
			}
			w.Header().Set("Connection", "close")
			s.writeError(w, http.StatusServiceUnavailable, failure.FailCanceled, "daemon is draining")
			return
		}

		// Bounded queue: at most Queue requests wait for a work slot;
		// arrivals beyond that are shed immediately — the daemon degrades
		// by refusing early, not by queueing unboundedly.
		if n := s.queued.Add(1); n > int64(s.cfg.Queue)+int64(s.cfg.MaxInflight) {
			s.queued.Add(-1)
			s.shed(w, rt, "request queue full")
			return
		}
		arrived := rt.clock()
		var release func()
		select {
		case s.slots <- struct{}{}:
			s.queued.Add(-1)
			rt.phase(phaseQueueWait, arrived)
			release = func() { <-s.slots }
		case <-s.drainCh:
			s.queued.Add(-1)
			if s.drainC != nil {
				s.drainC.Inc()
			}
			w.Header().Set("Connection", "close")
			s.writeError(w, http.StatusServiceUnavailable, failure.FailCanceled, "daemon is draining")
			return
		case <-r.Context().Done():
			s.queued.Add(-1)
			s.writeClassified(w, r.Context().Err(), http.StatusInternalServerError)
			return
		}
		defer release()

		// Per-request deadline, propagated as context into the decode and
		// the cancellable orderings.
		ctx := r.Context()
		if d := s.deadlineFor(r); d > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, d)
			defer cancel()
		}
		ctx = obs.NewContext(ctx, s.cfg.Obs)
		if rt != nil {
			ctx = context.WithValue(ctx, traceCtxKey{}, rt)
		}
		h(w, r.WithContext(ctx))
	}
}

// deadlineFor resolves the request's deadline: the configured default,
// shortened (never extended) by an X-Deadline-Ms header.
func (s *Server) deadlineFor(r *http.Request) time.Duration {
	d := s.cfg.Deadline
	if d < 0 {
		d = 0
	}
	if h := r.Header.Get("X-Deadline-Ms"); h != "" {
		if ms, err := strconv.ParseInt(h, 10, 64); err == nil && ms > 0 {
			if hd := time.Duration(ms) * time.Millisecond; d == 0 || hd < d {
				d = hd
			}
		}
	}
	return d
}

// shed refuses a request with 429 + Retry-After.
func (s *Server) shed(w http.ResponseWriter, rt *requestTrace, why string) {
	if s.shedC != nil {
		s.shedC.Inc()
	}
	if s.cfg.Logf != nil {
		s.cfg.Logf("shed [%s]: %s", rt.id(), why)
	}
	s.writeError(w, http.StatusTooManyRequests, failure.FailResource, why)
}

// uploadResponse answers POST /matrices.
type uploadResponse struct {
	Key            string  `json:"key"`
	Rows           int     `json:"rows"`
	Cols           int     `json:"cols"`
	NNZ            int     `json:"nnz"`
	Ordering       string  `json:"ordering"`
	Cached         bool    `json:"cached"`
	Deduplicated   bool    `json:"deduplicated,omitempty"`
	Persisted      bool    `json:"persisted,omitempty"`
	ReorderSeconds float64 `json:"reorder_seconds"`
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	rt := traceFrom(ctx)
	body, err := readBody(w, r, s.cfg.MaxBody, 0)
	if err != nil {
		s.writeBodyError(w, err)
		return
	}
	sum := sha256.Sum256(body)
	key := hex.EncodeToString(sum[:])
	rt.setKey(key)

	// Content-hash dedupe: a matrix already resident answers immediately —
	// the amortization the cache exists for. A resident entry missing from
	// the store (its persist failed, or it was quarantined last restart)
	// is re-persisted here, so durability self-heals on re-upload. The
	// lookup is no SpMV: it counts neither a cache hit nor a miss.
	if e := s.cache.pin(key); e != nil {
		persisted := s.store.has(key)
		if s.store != nil && !persisted {
			persisted = s.persistEntry(rt, e)
		}
		s.store.touch(e)
		s.cache.Unpin(e)
		writeJSON(w, http.StatusOK, uploadResponse{
			Key: key, Rows: e.rows, Cols: e.cols, NNZ: e.nnz,
			Ordering: string(e.alg), Cached: true, Deduplicated: true,
			Persisted:      persisted,
			ReorderSeconds: e.reorderSeconds,
		})
		return
	}

	// Decode phase: the injected decode fault is part of the phase so an
	// injected stall is attributed where the real stall would be.
	t0 := rt.clock()
	mat, err := s.decodeUpload(ctx, key, body)
	rt.phase(phaseDecode, t0)
	if err != nil {
		s.writeUploadError(w, rt, err)
		return
	}

	alg := reorder.Original
	if mat.NNZ() > 0 {
		alg = Predict(mat, s.cfg.Threads)
	}

	// Transient working-set admission for the reorder itself; shed instead
	// of queueing when the governor cannot grant it now.
	est := admit.EstimateMatrixBytes(mat.Rows, mat.NNZ(), []reorder.Algorithm{alg})
	t0 = rt.clock()
	adm, err := s.gov.TryAcquire(key, est)
	rt.phase(phaseGovernorWait, t0)
	if err != nil {
		s.writeUploadError(w, rt, err)
		return
	}
	defer adm.Release()

	// Reorder phase, opened before the fault check for the same
	// attribution reason: an injected server/reorder delay must show up
	// as reorder time in the trace.
	// The entry's SpMV plan is built inside the same window.
	t0 = rt.clock()
	b, perm, timings, err := s.reorderUpload(ctx, key, alg, mat)
	var e *entry
	if err == nil {
		e, err = newEntry(key, alg, b, perm, timings.Total(), s.cfg.Threads)
	}
	rt.phase(phaseReorder, t0)
	if err != nil {
		s.writeClassified(w, err, http.StatusInternalServerError)
		return
	}

	cached := false
	if err := faultinject.Check(faultinject.ServerCacheInsert, key); err != nil {
		if s.cfg.Logf != nil {
			s.cfg.Logf("cache insert %s: %v", key[:12], err)
		}
	} else if err := s.cache.Insert(e); err != nil {
		if s.cfg.Logf != nil {
			s.cfg.Logf("cache insert %s: %v", key[:12], err)
		}
	} else {
		cached = true
	}
	persisted := s.persistEntry(rt, e)
	writeJSON(w, http.StatusOK, uploadResponse{
		Key: key, Rows: e.rows, Cols: e.cols, NNZ: e.nnz,
		Ordering: string(alg), Cached: cached, Persisted: persisted,
		ReorderSeconds: e.reorderSeconds,
	})
}

// writeUploadError answers a failed upload step. A governor that cannot
// admit the step now sheds it (429); a shape over the bound, like a
// working set over the whole budget, is a permanent 413/resource refusal;
// any other error is classified, 400 for the client's input.
func (s *Server) writeUploadError(w http.ResponseWriter, rt *requestTrace, err error) {
	switch {
	case errors.Is(err, admit.ErrGovernorSaturated):
		s.shed(w, rt, err.Error())
	case errors.Is(err, errShapeBound):
		s.writeError(w, http.StatusRequestEntityTooLarge, failure.FailResource, err.Error())
	default:
		s.writeClassified(w, err, http.StatusBadRequest)
	}
}

// persistEntry writes e to the durable store, attributing the time to the
// store_write phase. A persist failure degrades, never fails the upload:
// the plan serves from memory, the error is logged and counted, and the
// cost of the lost durability is a cold cache miss on the next restart.
func (s *Server) persistEntry(rt *requestTrace, e *entry) bool {
	if s.store == nil {
		return false
	}
	t0 := rt.clock()
	err := s.store.put(e)
	rt.phase(phaseStoreWrite, t0)
	if err != nil {
		if s.cfg.Logf != nil {
			s.cfg.Logf("store: persist %.12s: %v", e.key, err)
		}
		return false
	}
	return true
}

// readBody reads the request body, capped at maxBody bytes, into one
// buffer. The buffer is presized from Content-Length, but the header is
// trusted only up to presize bytes, so a forged length cannot make the
// daemon allocate up to the cap; a longer body grows the buffer as it
// arrives.
func readBody(w http.ResponseWriter, r *http.Request, maxBody, presize int64) ([]byte, error) {
	rd := http.MaxBytesReader(w, r.Body, maxBody)
	defer rd.Close()
	n := min(max(r.ContentLength, 0), presize, maxBody)
	// The spare MinRead bytes let the read that reports EOF land without
	// growing a buffer that already holds the whole body.
	buf := make([]byte, 0, n+bytes.MinRead)
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, len(buf))
		}
		k, err := rd.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+k]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// decodeUpload is the upload's decode phase: the shape bound and its
// governor admission (admitShape), held until the parse returns, the
// injected fault site, and the Matrix Market parse.
func (s *Server) decodeUpload(ctx context.Context, key string, body []byte) (*sparse.CSR, error) {
	adm, err := s.admitShape(key, body)
	if err != nil {
		return nil, err
	}
	defer adm.Release()
	if err := faultinject.Check(faultinject.ServerDecode, key); err != nil {
		return nil, err
	}
	return sparse.ReadMatrixMarketCtx(ctx, bytes.NewReader(body), s.cfg.IngestWorkers)
}

// errShapeBound marks an upload whose size line declares a dimension
// above half the upload's length in bytes.
var errShapeBound = errors.New("server: upload shape over the bound")

// admitShape bounds an upload's decode by the shape its size line
// declares. Ingest assembles per-row arrays from the declared rows (about
// 20 B a row) whatever entries follow, so a few bytes declaring millions of
// rows would allocate hundreds of megabytes. A dimension above half the
// upload's length is refused with errShapeBound: the per-row arrays then
// cost at most about 10 B per byte sent, less than the entries cost, and
// every matrix with an entry in each row and column passes, its entry lines
// taking at least 4 bytes each. The declared nnz is never charged, because
// ingest allocates for the entries it reads, not for the ones the header
// promises. With a budget, the rows' share of the ingest working set is
// then admitted through the governor. A stream whose banner or size line
// does not parse gets no admission and no error, so the reader reports its
// own error.
func (s *Server) admitShape(key string, body []byte) (*admit.Admission, error) {
	rows, cols, _, err := sparse.ReadMatrixMarketShape(bytes.NewReader(body))
	if err != nil {
		return nil, nil
	}
	if limit := len(body) / 2; max(rows, cols) > limit {
		return nil, fmt.Errorf("%w: declared shape %dx%d exceeds %d, half the %d-byte upload",
			errShapeBound, rows, cols, limit, len(body))
	}
	return s.gov.TryAcquire(key, admit.EstimateIngestBytes(rows, 0))
}

// reorderUpload is the upload's reorder phase: the injected fault site
// plus the ordering pipeline (identity for Original).
func (s *Server) reorderUpload(ctx context.Context, key string, alg reorder.Algorithm, mat *sparse.CSR) (*sparse.CSR, sparse.Perm, reorder.PhaseTimings, error) {
	var timings reorder.PhaseTimings
	if err := faultinject.Check(faultinject.ServerReorder, key); err != nil {
		return nil, nil, timings, err
	}
	if alg == reorder.Original {
		return mat, sparse.Identity(mat.Rows), timings, nil
	}
	return reorder.ApplyTimedCtx(ctx, alg, mat, reorder.Options{
		Parts:   s.cfg.Threads,
		Seed:    s.cfg.Seed,
		Workers: s.cfg.ReorderWorkers,
	})
}

func (s *Server) handleMeta(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	m, ok := s.cache.Peek(key)
	if !ok {
		s.writeError(w, http.StatusNotFound, failure.FailError, "unknown matrix key")
		return
	}
	writeJSON(w, http.StatusOK, m)
}

func (s *Server) handleSpMV(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	rt := traceFrom(r.Context())
	rt.setKey(key)
	if err := faultinject.Check(faultinject.ServerSpMV, key); err != nil {
		s.writeClassified(w, err, http.StatusInternalServerError)
		return
	}
	e := s.cache.Get(key)
	if e == nil {
		s.writeError(w, http.StatusNotFound, failure.FailError,
			"unknown matrix key (upload it first, or it was evicted)")
		return
	}
	defer s.cache.Unpin(e)
	s.store.touch(e) // keep the persisted LRU order fresh

	// Decode phase: the body read plus the one-pass parse (wire.go). The
	// body buffer is presized for e.cols numbers at most, whatever
	// Content-Length claims.
	t0 := rt.clock()
	body, err := readBody(w, r, s.cfg.MaxBody, spmvWireBytes(e.cols))
	var x []float64
	if err == nil {
		x, err = decodeSpMVBodyUpTo(body, make([]float64, 0, e.cols), e.cols)
	}
	rt.phase(phaseDecode, t0)
	if err != nil {
		s.writeBodyError(w, fmt.Errorf("bad spmv body: %w", err))
		return
	}
	if len(x) != e.cols {
		s.writeError(w, http.StatusBadRequest, failure.FailError,
			fmt.Sprintf("x has %d entries, matrix has %d columns", len(x), e.cols))
		return
	}
	if err := r.Context().Err(); err != nil {
		s.writeClassified(w, err, http.StatusInternalServerError)
		return
	}

	y, err := s.multiply(rt, e, x)
	if err != nil {
		s.writeClassified(w, err, http.StatusInternalServerError)
		return
	}
	// Encode phase: the reply build plus its write. A non-finite y (an
	// overflowing product) has no JSON spelling; it is the client's input
	// that overflowed, so it answers 400 before any byte is written.
	t0 = rt.clock()
	err = writeSpMVReply(w, y)
	rt.phase(phaseEncode, t0)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, failure.FailError, err.Error())
	}
}

// multiply computes y = A·x in the ORIGINAL index space against the cached
// reordered matrix B:
//
//	symmetric ordering:  B = P·A·Pᵀ, so y[perm[i]] = (B · gather(x))[i]
//	row-only (Gray):     B rows are A's rows in perm order, x unchanged
//
// Both directions use the new-to-old permutation; the gather/scatter is
// exact (a permutation of float64 values, no arithmetic), so responses are
// identical between cached and freshly recomputed plans. They match an
// SpMV on the unordered matrix only to rounding: a symmetric ordering
// permutes the columns of each row, and with them the order in which the
// row's products are summed.
func (s *Server) multiply(rt *requestTrace, e *entry, x []float64) ([]float64, error) {
	t0 := rt.clock()
	xb := x
	if e.alg.Symmetric() && e.alg != reorder.Original {
		xb = make([]float64, e.cols)
		for i, p := range e.perm {
			xb[i] = x[p]
		}
	}
	yb := make([]float64, e.rows)
	if err := spmv.Mul2D(e.mat, xb, yb, e.plan); err != nil {
		rt.phase(phaseSpMV, t0)
		return nil, err
	}
	y := yb
	if e.alg != reorder.Original {
		y = make([]float64, e.rows)
		for i, p := range e.perm {
			y[p] = yb[i]
		}
	}
	rt.phase(phaseSpMV, t0)
	return y, nil
}

// healthState is the /healthz and /readyz body.
type healthState struct {
	Status   string `json:"status"`
	Draining bool   `json:"draining"`
	Queued   int64  `json:"queued"`
	InFlight int64  `json:"in_flight"`
	Cached   int    `json:"cached_entries"`
	// StoreRemaining is the count of store entries warm-restart recovery
	// has not yet processed; nonzero only while status is "recovering".
	StoreRemaining int64 `json:"store_entries_remaining,omitempty"`
}

func (s *Server) state() healthState {
	return healthState{
		Draining:       s.draining.Load(),
		Queued:         s.queued.Load(),
		InFlight:       s.inflight.Load(),
		Cached:         s.cache.Len(),
		StoreRemaining: s.recoverRemaining.Load(),
	}
}

// handleHealthz is liveness: 200 while the process serves, including
// during drain (a draining daemon is alive; killing it early would abort
// the in-flight work the drain protects).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.state()
	st.Status = "ok"
	if st.Draining {
		st.Status = "draining"
	}
	writeJSON(w, http.StatusOK, st)
}

// handleReadyz is load acceptance: 503 while draining, while warm-restart
// recovery is rebuilding plans from the store, or while admission is
// saturated (governor committed or queue full), 200 otherwise — the flip
// a load balancer uses to route around an overloaded, warming or stopping
// instance. The body names the state and, during recovery, the entries
// remaining.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st := s.state()
	switch {
	case st.Draining:
		st.Status = "draining"
	case s.recovering.Load():
		// Warm-restart recovery is still rebuilding plans from the store:
		// hold load-balancer traffic (clients that arrive anyway are
		// served — at worst a cache miss) until the cache is warm.
		st.Status = "recovering"
	case s.gov.Saturated():
		st.Status = "overloaded"
	case st.Queued >= int64(s.cfg.Queue)+int64(s.cfg.MaxInflight):
		st.Status = "overloaded"
	default:
		st.Status = "ready"
		writeJSON(w, http.StatusOK, st)
		return
	}
	writeJSON(w, http.StatusServiceUnavailable, st)
}
