package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"sparseorder/internal/faultinject"
	"sparseorder/internal/gen"
)

// waitGoroutines polls until the goroutine count returns to at most base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > %d at start\n%s",
				runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGracefulDrain is the satellite-3 scenario: with one request in
// flight and one queued, BeginDrain must (a) release the queued request
// with 503, (b) reject new intake with 503 + Connection: close, (c) let
// the in-flight request finish with 200, and (d) leave zero goroutines
// behind once the listener closes.
func TestGracefulDrain(t *testing.T) {
	baseline := runtime.NumGoroutine()

	o := newTestObs()
	srv := mustNew(t, Config{Threads: 1, MaxInflight: 1, Queue: 2, Obs: o})
	ts := httptest.NewServer(srv.Handler())

	// The in-flight upload is held inside the work section by a 700ms
	// injected delay at the reorder boundary, keyed by its content hash.
	slow := mmBytes(t, gen.Banded(60, 2, 1, 8))
	sum := sha256.Sum256(slow)
	slowKey := hex.EncodeToString(sum[:])
	faultinject.Activate(faultinject.NewPlan(1, faultinject.Rule{
		Point: faultinject.ServerReorder, Mode: faultinject.ModeDelay, Rate: 1, Param: 700,
	}))
	defer faultinject.Activate(nil)

	type result struct {
		code int
		err  error
	}
	post := func(body []byte, ch chan<- result) {
		res, err := ts.Client().Post(ts.URL+"/matrices", "text/plain", bytes.NewReader(body))
		if err != nil {
			ch <- result{err: err}
			return
		}
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
		ch <- result{code: res.StatusCode}
	}

	inflightC := make(chan result, 1)
	go post(slow, inflightC)
	deadline := time.Now().Add(5 * time.Second)
	for !(srv.inflight.Load() == 1 && srv.queued.Load() == 0) {
		if time.Now().After(deadline) {
			t.Fatalf("upload never claimed the work slot (inflight=%d queued=%d)",
				srv.inflight.Load(), srv.queued.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// A second distinct upload queues behind it.
	queuedBody := mmBytes(t, gen.Banded(50, 2, 1, 9))
	queuedC := make(chan result, 1)
	go post(queuedBody, queuedC)
	for srv.queued.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second upload never queued")
		}
		time.Sleep(2 * time.Millisecond)
	}

	srv.BeginDrain()

	// (a) The queued request is released with 503, well before the slow
	// in-flight one could have finished.
	select {
	case r := <-queuedC:
		if r.err != nil || r.code != http.StatusServiceUnavailable {
			t.Fatalf("queued request: %+v, want 503", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued request not released by drain")
	}

	// (b) New intake is rejected immediately.
	res, err := ts.Client().Post(ts.URL+"/matrices", "text/plain", bytes.NewReader(queuedBody))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("new intake during drain = %d, want 503", res.StatusCode)
	}
	if res.Header.Get("Retry-After") == "" {
		t.Error("drain 503 without Retry-After")
	}

	// (c) The in-flight request runs to completion and is fully served.
	select {
	case r := <-inflightC:
		if r.err != nil || r.code != http.StatusOK {
			t.Fatalf("in-flight request: %+v, want 200", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request did not finish during drain")
	}
	if !srv.cache.Contains(slowKey) {
		t.Error("in-flight upload's result was not committed to the cache")
	}

	wctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.WaitIdle(wctx); err != nil {
		t.Fatalf("WaitIdle: %v", err)
	}
	if n := o.Metrics.Counter("sparseorder_server_drain_rejected_total", "").Value(); n < 2 {
		t.Errorf("drain_rejected_total = %d, want >= 2", n)
	}

	// (d) No goroutines survive the shutdown.
	ts.Client().CloseIdleConnections()
	ts.Close()
	waitGoroutines(t, baseline)
}

// TestWaitIdleTimeout: an in-flight request that outlives the drain window
// surfaces as an error (cmd/serve turns it into exit code 1).
func TestWaitIdleTimeout(t *testing.T) {
	srv := mustNew(t, Config{Threads: 1, Obs: newTestObs()})
	srv.inflight.Add(1)
	defer srv.inflight.Add(-1)
	srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := srv.WaitIdle(ctx); err == nil {
		t.Fatal("WaitIdle returned nil with a request still in flight")
	}
}
