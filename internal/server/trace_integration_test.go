package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"sparseorder/internal/faultinject"
	"sparseorder/internal/gen"
	"sparseorder/internal/obs"
)

// TestReorderDelayAttributable is the PR's acceptance scenario: a request
// slowed by an injected server/reorder delay must be diagnosable from the
// observability surface alone — the client's request id is echoed, the
// trace in /debug/requests shows the reorder phase dominating, and the
// per-phase histogram on /metrics agrees.
func TestReorderDelayAttributable(t *testing.T) {
	const delayMs = 150
	faultinject.Activate(faultinject.NewPlan(1, faultinject.Rule{
		Point: faultinject.ServerReorder, Mode: faultinject.ModeDelay, Rate: 1, Param: delayMs,
	}))
	defer faultinject.Activate(nil)

	o := newTestObs()
	o.Requests = obs.NewTraceRing(16)
	srv := mustNew(t, Config{Threads: 1, Obs: o})
	h := srv.Handler()

	const reqID = "diagnose-me-42"
	req := httptest.NewRequest(http.MethodPost, "/matrices", bytes.NewReader(mmBytes(t, gen.Banded(200, 4, 0.8, 1))))
	req.Header.Set(obs.RequestIDHeader, reqID)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("upload status %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get(obs.RequestIDHeader); got != reqID {
		t.Fatalf("request id not echoed: got %q, want %q", got, reqID)
	}

	// Step 1: /debug/requests alone identifies the slow request and its
	// dominant phase.
	dw := httptest.NewRecorder()
	h.ServeHTTP(dw, httptest.NewRequest(http.MethodGet, "/debug/requests?view=slowest&format=json", nil))
	if dw.Code != http.StatusOK {
		t.Fatalf("/debug/requests status %d: %s", dw.Code, dw.Body.String())
	}
	var doc struct {
		Traces []obs.ReqTrace `json:"traces"`
	}
	if err := json.Unmarshal(dw.Body.Bytes(), &doc); err != nil {
		t.Fatalf("decode /debug/requests: %v\n%s", err, dw.Body.String())
	}
	var trace *obs.ReqTrace
	for i := range doc.Traces {
		if doc.Traces[i].ID == reqID {
			trace = &doc.Traces[i]
		}
	}
	if trace == nil {
		t.Fatalf("request %s not in slowest view: %s", reqID, dw.Body.String())
	}
	dom := trace.Dominant()
	if dom.Name != "reorder" {
		t.Errorf("dominant phase = %s (%.3fs), want reorder", dom.Name, dom.Seconds)
	}
	if want := float64(delayMs) / 1e3; dom.Seconds < want {
		t.Errorf("reorder phase %.3fs, want >= %.3fs (the injected delay)", dom.Seconds, want)
	}

	// Step 2: the per-phase histogram on /metrics tells the same story.
	mw := httptest.NewRecorder()
	h.ServeHTTP(mw, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	samples, err := obs.ParseText(mw.Body.String())
	if err != nil {
		t.Fatal(err)
	}
	sum := histSum(t, samples, metricPhaseSeconds, "upload", "reorder")
	if want := float64(delayMs) / 1e3; sum < want {
		t.Errorf("scraped reorder phase sum %.3fs, want >= %.3fs", sum, want)
	}
	qsum := histSum(t, samples, metricPhaseSeconds, "upload", "queue_wait")
	if qsum > sum {
		t.Errorf("queue_wait sum %.3fs exceeds reorder sum %.3fs; attribution wrong", qsum, sum)
	}
}

// histSum returns the _sum sample of one route/phase histogram series.
func histSum(t *testing.T, samples []obs.Sample, family, route, phase string) float64 {
	t.Helper()
	for _, s := range samples {
		if s.Name == family+"_sum" && s.Labels["route"] == route && s.Labels["phase"] == phase {
			return s.Value
		}
	}
	t.Fatalf("series %s{route=%q,phase=%q} not scraped", family, route, phase)
	return 0
}

// TestSpMVEncodePhase: every SpMV reply is timed as the encode phase.
// After n requests the {route="spmv",phase="encode"} histogram counts n
// and every spmv trace carries the phase.
func TestSpMVEncodePhase(t *testing.T) {
	o := newTestObs()
	o.Requests = obs.NewTraceRing(16)
	srv := mustNew(t, Config{Threads: 1, Obs: o})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	a := gen.Banded(120, 3, 0.9, 4)
	res, up := postUpload(t, ts, mmBytes(t, a))
	if res.StatusCode != http.StatusOK {
		t.Fatalf("upload status %d", res.StatusCode)
	}
	const n = 5
	for i := 0; i < n; i++ {
		if res, raw := postSpMV(t, ts, up.Key, testVector(a.Cols, int64(i))); res.StatusCode != http.StatusOK {
			t.Fatalf("spmv %d: status %d: %s", i, res.StatusCode, raw)
		}
	}

	mres, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(mres.Body)
	mres.Body.Close()
	samples, err := obs.ParseText(string(text))
	if err != nil {
		t.Fatal(err)
	}
	var count float64 = -1
	for _, s := range samples {
		if s.Name == metricPhaseSeconds+"_count" && s.Labels["route"] == "spmv" && s.Labels["phase"] == "encode" {
			count = s.Value
		}
	}
	if count != n {
		t.Errorf("spmv encode phase count = %v, want %d", count, n)
	}

	traces := 0
	for _, tr := range o.Requests.Snapshot(obs.ViewRecent, 16) {
		if tr.Route != "spmv" {
			continue
		}
		traces++
		found := false
		for _, ph := range tr.Phases {
			found = found || ph.Name == "encode"
		}
		if !found {
			t.Errorf("spmv trace %s has phases %+v, no encode", tr.ID, tr.Phases)
		}
	}
	if traces != n {
		t.Errorf("ring holds %d spmv traces, want %d", traces, n)
	}
}

// TestNilObsRequestPathAllocFree pins the PR 4 contract extended to the
// serving path: with cfg.Obs nil every tracing primitive the request path
// calls is a nil-receiver no-op that allocates nothing.
func TestNilObsRequestPathAllocFree(t *testing.T) {
	srv := mustNew(t, Config{Threads: 1})
	if len(srv.routes) != 0 {
		t.Fatalf("nil-Obs server built %d route sinks, want 0", len(srv.routes))
	}
	req := httptest.NewRequest(http.MethodPost, "/matrices", nil)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		rt := srv.startTrace(nil, "server/upload", req)
		_ = rt.id()
		t0 := rt.clock()
		rt.phase(phaseQueueWait, t0)
		rt.setKey("k")
		rt2 := traceFrom(ctx)
		rt2.phase(phaseSpMV, t0)
		rt.finish(http.StatusOK, "", "")
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing primitives allocate %.1f per request, want 0", allocs)
	}
	var rt *requestTrace
	if !rt.clock().IsZero() {
		t.Fatal("nil trace sampled the wall clock")
	}
}

// TestTraceRingSeesEveryOutcome drives success, client error and shed
// through the server and checks each lands in the ring with the right
// status and class.
func TestTraceRingSeesEveryOutcome(t *testing.T) {
	o := newTestObs()
	o.Requests = obs.NewTraceRing(16)
	srv := mustNew(t, Config{Threads: 1, Obs: o})
	h := srv.Handler()

	// Success.
	up := httptest.NewRecorder()
	h.ServeHTTP(up, httptest.NewRequest(http.MethodPost, "/matrices", bytes.NewReader(mmBytes(t, gen.Banded(200, 4, 0.8, 1)))))
	if up.Code != http.StatusOK {
		t.Fatalf("upload: %d", up.Code)
	}
	// Deterministic client error: malformed body.
	bad := httptest.NewRecorder()
	h.ServeHTTP(bad, httptest.NewRequest(http.MethodPost, "/matrices", strings.NewReader("not a matrix")))
	if bad.Code != http.StatusBadRequest {
		t.Fatalf("bad upload: %d", bad.Code)
	}
	// 404 on an unknown key.
	miss := httptest.NewRecorder()
	h.ServeHTTP(miss, httptest.NewRequest(http.MethodPost, "/spmv/nope", strings.NewReader(`{"x":[1]}`)))
	if miss.Code != http.StatusNotFound {
		t.Fatalf("missing key: %d", miss.Code)
	}

	recent := o.Requests.Snapshot(obs.ViewRecent, 10)
	if len(recent) != 3 {
		t.Fatalf("ring holds %d traces, want 3", len(recent))
	}
	errored := o.Requests.Snapshot(obs.ViewErrored, 10)
	if len(errored) != 2 {
		t.Fatalf("errored view holds %d, want 2", len(errored))
	}
	for _, tr := range errored {
		if tr.Class == "" {
			t.Errorf("errored trace %s (status %d) missing failure class", tr.ID, tr.Status)
		}
		if tr.Error == "" {
			t.Errorf("errored trace %s missing error message", tr.ID)
		}
	}
	// Every trace got a generated id and a latency.
	for _, tr := range recent {
		if tr.ID == "" || tr.Seconds <= 0 {
			t.Errorf("trace %+v missing id or latency", tr)
		}
	}
}

// TestAccessLogEmitted checks the JSONL access record rides the event log
// with request id, status and phases.
func TestAccessLogEmitted(t *testing.T) {
	dir := t.TempDir()
	ev, err := obs.OpenEventLog(dir + "/events.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	o := newTestObs()
	o.Events = ev
	o.Requests = obs.NewTraceRing(4)
	srv := mustNew(t, Config{Threads: 1, Obs: o})
	h := srv.Handler()

	req := httptest.NewRequest(http.MethodPost, "/matrices", bytes.NewReader(mmBytes(t, gen.Banded(200, 4, 0.8, 1))))
	req.Header.Set(obs.RequestIDHeader, "log-me")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("upload: %d", w.Code)
	}
	if err := ev.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(dir + "/events.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	var access map[string]any
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var e map[string]any
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if e["ev"] == "access" {
			access = e
		}
	}
	if access == nil {
		t.Fatalf("no access event in log:\n%s", data)
	}
	if access["req"] != "log-me" {
		t.Errorf("access req = %v, want log-me", access["req"])
	}
	if access["status"] != float64(http.StatusOK) {
		t.Errorf("access status = %v", access["status"])
	}
	phases, _ := access["phases"].(map[string]any)
	if _, ok := phases["reorder"]; !ok {
		t.Errorf("access phases %v missing reorder", phases)
	}
}
