package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"sparseorder/internal/obs"
)

// phase indexes the serving path's latency decomposition. Every request's
// wall time is attributed to the phases it actually passed through; the
// remainder (routing, the upload reply, scheduling) is deliberately left
// unattributed so the phases never over-claim.
type phase int

const (
	// phaseQueueWait is the time between arrival and acquiring a work
	// slot — the queueing-delay component of tail latency.
	phaseQueueWait phase = iota
	// phaseGovernorWait is the time spent in memory-governor admission
	// (TryAcquire bookkeeping; the governor never blocks, so a large value
	// here means admission lock contention, not budget waits).
	phaseGovernorWait
	// phaseDecode is input decoding: Matrix Market parsing on upload; the
	// body read and the x-vector parse on spmv.
	phaseDecode
	// phaseReorder is the ordering pipeline (graph build, ordering,
	// permute) — the paper's dominant one-shot cost (Table 5) — plus the
	// new entry's SpMV plan.
	phaseReorder
	// phaseSpMV is the multiply itself, including the permutation
	// gather/scatter.
	phaseSpMV
	// phaseEncode is the spmv reply: encoding y into one buffer and
	// writing it.
	phaseEncode
	// phaseStoreWrite is the durable-store persist after a successful
	// reorder: serialization plus the atomic write and its fsyncs.
	phaseStoreWrite

	nPhases
)

var phaseNames = [nPhases]string{
	"queue_wait", "governor_wait", "decode", "reorder", "spmv", "encode", "store_write",
}

// Metric family names of the serving path.
const (
	metricRequestsTotal  = "sparseorder_server_requests_total"
	metricRequestSeconds = "sparseorder_server_request_seconds"
	metricPhaseSeconds   = "sparseorder_server_phase_seconds"
	metricInflight       = "sparseorder_server_inflight"
	metricQueueDepth     = "sparseorder_server_queue_depth"
)

// routeMetrics is one route's pre-resolved metric handles. Handle lookup
// in the registry takes a lock and rebuilds a label signature; doing that
// per request put two lookups on the hot path, so every series a request
// can touch is resolved once at construction and the request path only
// hammers atomics. Status-code counters are the one open-ended label:
// the common codes are pre-resolved into the read-mostly table and the
// long tail falls back to a short write-locked insertion, once per
// (route, code) for the process lifetime.
type routeMetrics struct {
	route   string
	latency *obs.Histogram
	phases  [nPhases]*obs.Histogram

	mu    sync.RWMutex
	codes map[int]*obs.Counter
	reg   *obs.Registry
}

// commonCodes are the status codes the daemon emits by design; anything
// else reaches codeCounter's slow path exactly once.
var commonCodes = []int{
	http.StatusOK, http.StatusBadRequest, http.StatusNotFound,
	http.StatusRequestEntityTooLarge, http.StatusTooManyRequests,
	statusClientClosed, http.StatusInternalServerError,
	http.StatusServiceUnavailable, http.StatusGatewayTimeout,
}

// newRouteMetrics resolves every series the route can touch. r may be nil
// (Obs disabled): the zero handles are never dereferenced because no
// requestTrace is created.
func newRouteMetrics(r *obs.Registry, route string) *routeMetrics {
	if r == nil {
		return nil
	}
	rm := &routeMetrics{route: route, reg: r, codes: make(map[int]*obs.Counter, len(commonCodes))}
	rm.latency = r.Histogram(metricRequestSeconds,
		"API request latency by route", obs.DefBuckets,
		obs.Label{Key: "route", Value: route})
	for p := phase(0); p < nPhases; p++ {
		rm.phases[p] = r.Histogram(metricPhaseSeconds,
			"request latency decomposition by route and phase", obs.DefBuckets,
			obs.Label{Key: "route", Value: route},
			obs.Label{Key: "phase", Value: phaseNames[p]})
	}
	for _, code := range commonCodes {
		rm.codes[code] = rm.resolveCode(code)
	}
	return rm
}

func (rm *routeMetrics) resolveCode(code int) *obs.Counter {
	return rm.reg.Counter(metricRequestsTotal,
		"API requests by route and status code",
		obs.Label{Key: "route", Value: rm.route},
		obs.Label{Key: "code", Value: fmt.Sprintf("%d", code)})
}

// codeCounter returns the requests_total counter for code: a read-locked
// table hit for every code seen before, one registry resolution otherwise.
func (rm *routeMetrics) codeCounter(code int) *obs.Counter {
	rm.mu.RLock()
	c := rm.codes[code]
	rm.mu.RUnlock()
	if c != nil {
		return c
	}
	rm.mu.Lock()
	defer rm.mu.Unlock()
	if c = rm.codes[code]; c == nil {
		c = rm.resolveCode(code)
		rm.codes[code] = c
	}
	return c
}

// stateCollector exports the admission gauges at scrape time — the
// in-flight and queued counts already live in the Server's atomics, so a
// scrape-time read costs the request path nothing.
func (s *Server) stateCollector() func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := fmt.Fprintf(w,
			"# HELP %s requests currently executing or writing a response\n"+
				"# TYPE %s gauge\n%s %d\n"+
				"# HELP %s requests waiting for a work slot\n"+
				"# TYPE %s gauge\n%s %d\n",
			metricInflight, metricInflight, metricInflight, s.inflight.Load(),
			metricQueueDepth, metricQueueDepth, metricQueueDepth, s.queued.Load())
		return err
	}
}

// requestTrace accumulates one request's identity, phase timings and
// outcome while it executes, then flushes everything — per-phase
// histograms are fed live, the completed obs.ReqTrace goes to the trace
// ring, the access log and the request span at finish. It exists only
// when an Obs is attached: with cfg.Obs nil, startTrace returns nil and
// every method is a nil-receiver no-op that never reads the clock, so the
// disabled request path keeps the PR 4 zero-allocation contract.
type requestTrace struct {
	rm *requestTraceSinks
	sp *obs.Span
	t  obs.ReqTrace
}

// requestTraceSinks bundles the per-route handles and per-server sinks a
// trace flushes into; resolved once per route at construction.
type requestTraceSinks struct {
	metrics *routeMetrics
	ring    *obs.TraceRing
	events  *obs.EventLog
}

// traceCtxKey carries the *requestTrace through the handler context.
type traceCtxKey struct{}

// traceFrom recovers the request's trace recorder; nil (a no-op recorder)
// when tracing is disabled.
func traceFrom(ctx context.Context) *requestTrace {
	rt, _ := ctx.Value(traceCtxKey{}).(*requestTrace)
	return rt
}

// startTrace begins recording a request on route rt (nil when Obs is
// disabled). The returned trace already carries the accepted-or-generated
// request id.
func (s *Server) startTrace(sinks *requestTraceSinks, spanName string, r *http.Request) *requestTrace {
	if sinks == nil {
		return nil
	}
	rt := &requestTrace{rm: sinks, sp: s.cfg.Obs.Span(spanName)}
	rt.t.ID = obs.AcceptRequestID(r.Header)
	rt.t.Route = sinks.metrics.route
	rt.t.Start = time.Now()
	rt.t.Phases = make([]obs.ReqPhase, 0, nPhases)
	rt.sp.SetAttr("request_id", rt.t.ID)
	return rt
}

// id returns the request id, "" on the disabled path.
func (rt *requestTrace) id() string {
	if rt == nil {
		return ""
	}
	return rt.t.ID
}

// clock samples the wall clock for a phase start; the disabled path does
// not even read the clock.
func (rt *requestTrace) clock() time.Time {
	if rt == nil {
		return time.Time{}
	}
	return time.Now()
}

// phase attributes the time since t0 (a clock() sample) to phase p: one
// pre-resolved histogram observation plus an entry in the trace.
func (rt *requestTrace) phase(p phase, t0 time.Time) {
	if rt == nil {
		return
	}
	sec := time.Since(t0).Seconds()
	rt.rm.metrics.phases[p].Observe(sec)
	rt.t.Phases = append(rt.t.Phases, obs.ReqPhase{Name: phaseNames[p], Seconds: sec})
}

// setKey records the matrix content-hash key once the request resolved it.
func (rt *requestTrace) setKey(key string) {
	if rt == nil {
		return
	}
	rt.t.Key = key
}

// finish flushes the completed request: latency and status-code series,
// the trace ring, the access log, and the request span (stamped with
// status, and class on failure).
func (rt *requestTrace) finish(status int, class, errmsg string) {
	if rt == nil {
		return
	}
	if status == 0 {
		status = http.StatusOK
	}
	rt.t.Seconds = time.Since(rt.t.Start).Seconds()
	rt.t.Status = status
	rt.t.Class = class
	rt.t.Error = errmsg
	rt.rm.metrics.latency.Observe(rt.t.Seconds)
	rt.rm.metrics.codeCounter(status).Inc()
	rt.sp.SetAttr("status", fmt.Sprintf("%d", status))
	if class != "" {
		rt.sp.SetAttr("class", class)
	}
	rt.sp.End()
	rt.rm.ring.Add(&rt.t)
	rt.rm.events.EmitAccess(&rt.t)
}
