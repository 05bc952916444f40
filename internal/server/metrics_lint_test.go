package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"sparseorder/internal/gen"
	"sparseorder/internal/obs"
)

var promNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// TestServerMetricNamesLint exercises the full serving surface and then
// asserts every metric family registered — and every sample name emitted,
// including collector output the registry never sees as a family — obeys
// the Prometheus naming grammar. This is the guard that keeps a typo'd
// family name in a new call site from silently breaking scrapes.
func TestServerMetricNamesLint(t *testing.T) {
	o := newTestObs()
	o.Requests = obs.NewTraceRing(8)
	o.Metrics.AddCollector(obs.RuntimeCollector())
	srv := mustNew(t, Config{Threads: 1, Obs: o})
	h := srv.Handler()

	// Drive upload, spmv, a 4xx and a 404 so every labelled series the
	// request path can mint exists.
	up := httptest.NewRecorder()
	h.ServeHTTP(up, httptest.NewRequest(http.MethodPost, "/matrices",
		bytes.NewReader(mmBytes(t, gen.Banded(150, 3, 0.9, 5)))))
	if up.Code != http.StatusOK {
		t.Fatalf("upload: %d", up.Code)
	}
	h.ServeHTTP(httptest.NewRecorder(),
		httptest.NewRequest(http.MethodPost, "/matrices", strings.NewReader("junk")))
	h.ServeHTTP(httptest.NewRecorder(),
		httptest.NewRequest(http.MethodPost, "/spmv/absent", strings.NewReader(`{"x":[1]}`)))

	for _, f := range o.Metrics.Families() {
		if !promNameRE.MatchString(f) {
			t.Errorf("registered family %q violates the Prometheus naming grammar", f)
		}
	}

	// ParseText rejects any sample whose name or label names break the
	// grammar, so a clean parse covers every emitted sample.
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	samples, err := obs.ParseText(w.Body.String())
	if err != nil {
		t.Fatalf("emitted exposition violates the grammar: %v", err)
	}
	seen := map[string]bool{}
	for _, s := range samples {
		seen[s.Name] = true
	}

	// The serving families this PR adds must all be on the wire.
	for _, want := range []string{
		metricRequestsTotal,
		metricRequestSeconds + "_bucket",
		metricPhaseSeconds + "_bucket",
		metricInflight,
		metricQueueDepth,
		"sparseorder_go_goroutines",
		"sparseorder_go_gc_pause_seconds_total",
	} {
		if !seen[want] {
			t.Errorf("/metrics missing %s", want)
		}
	}
}
