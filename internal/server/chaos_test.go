package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"sparseorder/internal/failure"
	"sparseorder/internal/faultinject"
	"sparseorder/internal/gen"
	"sparseorder/internal/sparse"
)

// chaosMatrix is one upload target with its precomputed ground truth.
type chaosMatrix struct {
	body []byte
	key  string
	x    []float64
	want []byte // exact /spmv response bytes from a fault-free daemon
}

// TestServerChaosSoak is the PR's acceptance scenario: a seeded fault
// schedule armed at all four server points (decode, reorder, cache insert,
// SpMV) while concurrent clients hammer uploads and SpMV requests on a
// small daemon (tight queue, entry-bounded cache, byte budget). Afterwards
// the soak asserts:
//
//   - every 200 SpMV response was byte-identical to the fault-free
//     daemon's answer — cached plans and freshly recomputed plans agree
//     exactly, chaos or not;
//   - every failure was a well-formed classified JSON response with a
//     status from the robustness contract, and every 429/503 carried
//     Retry-After;
//   - the cache was never torn: books balance, no pins leak, and with the
//     faults disarmed every matrix uploads and serves correctly;
//   - no goroutines leak.
//
// Fault decisions hash (seed, point, content hash), so the schedule is
// identical in every run regardless of request interleaving.
func TestServerChaosSoak(t *testing.T) {
	baseline := runtime.NumGoroutine()

	srcs := []*sparse.CSR{
		gen.Banded(120, 3, 1, 1),
		gen.Grid2D(12, 12),
		gen.RMAT(7, 6, 3),
		gen.Banded(90, 5, 0.6, 4),
		gen.Grid2D(10, 14),
		gen.RMAT(6, 5, 9),
	}
	threads := 2

	// Ground truth from a fault-free daemon with a DIFFERENT reorder worker
	// count: plan bytes must agree anyway (the determinism contract).
	mats := make([]*chaosMatrix, len(srcs))
	ref := mustNew(t, Config{Threads: threads, ReorderWorkers: 3, Obs: newTestObs()})
	rts := httptest.NewServer(ref.Handler())
	for i, a := range srcs {
		body := mmBytes(t, a)
		sum := sha256.Sum256(body)
		cm := &chaosMatrix{body: body, key: hex.EncodeToString(sum[:]), x: testVector(a.Cols, int64(i))}
		if res, _ := postUpload(t, rts, body); res.StatusCode != http.StatusOK {
			t.Fatalf("reference upload %d: %d", i, res.StatusCode)
		}
		res, raw := postSpMV(t, rts, cm.key, cm.x)
		if res.StatusCode != http.StatusOK {
			t.Fatalf("reference spmv %d: %d %s", i, res.StatusCode, raw)
		}
		cm.want = raw
		mats[i] = cm
	}
	rts.Close()

	// The soak daemon: tight enough that shedding, eviction and governor
	// saturation all genuinely occur.
	srv := mustNew(t, Config{
		Threads:      threads,
		MaxInflight:  2,
		Queue:        2,
		MemBudget:    32 << 20,
		CacheEntries: 4, // fewer than matrices: evictions guaranteed
		Obs:          newTestObs(),
	})
	ts := httptest.NewServer(srv.Handler())

	faultinject.Activate(faultinject.NewPlan(7,
		faultinject.Rule{Point: faultinject.ServerDecode, Mode: faultinject.ModeError, Rate: 0.3},
		faultinject.Rule{Point: faultinject.ServerReorder, Mode: faultinject.ModeError, Rate: 0.25},
		faultinject.Rule{Point: faultinject.ServerReorder, Mode: faultinject.ModeDelay, Rate: 1, Param: 3},
		faultinject.Rule{Point: faultinject.ServerCacheInsert, Mode: faultinject.ModeENOSPC, Rate: 0.5},
		faultinject.Rule{Point: faultinject.ServerSpMV, Mode: faultinject.ModePanic, Rate: 0.2},
	))
	defer faultinject.Deactivate()

	okStatuses := map[int]bool{
		http.StatusBadRequest: true, http.StatusNotFound: true,
		http.StatusTooManyRequests: true, http.StatusInternalServerError: true,
		http.StatusServiceUnavailable: true, http.StatusGatewayTimeout: true,
		http.StatusRequestEntityTooLarge: true, statusClientClosed: true,
	}
	classes := map[failure.FailureClass]bool{
		failure.FailError: true, failure.FailTimeout: true,
		failure.FailCanceled: true, failure.FailPanic: true,
		failure.FailResource: true,
	}

	const workers, iters = 8, 25
	var mu sync.Mutex
	var spmvOK, shed int
	fail := func(format string, args ...any) {
		mu.Lock()
		t.Errorf(format, args...)
		mu.Unlock()
	}
	do := func(method, url string, body []byte) (int, []byte, http.Header) {
		req, err := http.NewRequest(method, url, bytes.NewReader(body))
		if err != nil {
			fail("request: %v", err)
			return 0, nil, nil
		}
		res, err := ts.Client().Do(req)
		if err != nil {
			fail("do: %v", err)
			return 0, nil, nil
		}
		raw, _ := io.ReadAll(res.Body)
		res.Body.Close()
		return res.StatusCode, raw, res.Header
	}
	checkFailure := func(what string, code int, raw []byte, hdr http.Header) {
		if !okStatuses[code] {
			fail("%s: unexpected status %d (%s)", what, code, raw)
			return
		}
		var ae apiError
		if err := json.Unmarshal(raw, &ae); err != nil || !classes[ae.Class] {
			fail("%s: malformed classified error %q (unmarshal %v)", what, raw, err)
		}
		if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
			if hdr.Get("Retry-After") == "" {
				fail("%s: %d without Retry-After", what, code)
			}
			mu.Lock()
			shed++
			mu.Unlock()
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				m := mats[(g+i)%len(mats)]
				code, raw, hdr := do("POST", ts.URL+"/matrices", m.body)
				switch {
				case code == http.StatusOK:
					var up uploadResponse
					if err := json.Unmarshal(raw, &up); err != nil || up.Key != m.key {
						fail("upload: bad 200 body %q (%v)", raw, err)
					}
				default:
					checkFailure("upload", code, raw, hdr)
				}

				xb, _ := json.Marshal(spmvRequest{X: m.x})
				code, raw, hdr = do("POST", ts.URL+"/spmv/"+m.key, xb)
				switch {
				case code == http.StatusOK:
					if !bytes.Equal(raw, m.want) {
						fail("spmv %s: response differs from fault-free daemon\ngot:  %.80s\nwant: %.80s",
							m.key[:12], raw, m.want)
					}
					mu.Lock()
					spmvOK++
					mu.Unlock()
				default:
					checkFailure("spmv", code, raw, hdr)
				}
			}
		}(g)
	}
	wg.Wait()

	// The schedule must have actually fired somewhere, and some SpMVs must
	// have genuinely succeeded — a soak where everything (or nothing)
	// failed proves nothing.
	fired := faultinject.Fired()
	for _, pt := range []faultinject.Point{
		faultinject.ServerDecode, faultinject.ServerReorder,
		faultinject.ServerCacheInsert, faultinject.ServerSpMV,
	} {
		if fired[pt] == 0 {
			t.Errorf("point %s never fired; the soak did not exercise it", pt)
		}
	}
	if spmvOK == 0 {
		t.Error("no SpMV succeeded during the soak")
	}
	t.Logf("soak: %d spmv 200s byte-checked, %d shed/drain rejections, faults fired %v", spmvOK, shed, fired)

	// No torn cache state: books balance, nothing left pinned, and with
	// faults disarmed every matrix uploads and serves the exact reference
	// answer through whatever cache state the chaos left behind.
	checkInvariants(t, srv.Cache(), true)
	faultinject.Deactivate()
	for i, m := range mats {
		if res, _ := postUpload(t, ts, m.body); res.StatusCode != http.StatusOK {
			t.Fatalf("post-chaos upload %d: %d", i, res.StatusCode)
		}
		res, raw := postSpMV(t, ts, m.key, m.x)
		if res.StatusCode != http.StatusOK {
			t.Fatalf("post-chaos spmv %d: %d %s", i, res.StatusCode, raw)
		}
		if !bytes.Equal(raw, m.want) {
			t.Errorf("post-chaos spmv %d differs from reference", i)
		}
	}
	checkInvariants(t, srv.Cache(), true)

	ts.Client().CloseIdleConnections()
	ts.Close()
	waitGoroutines(t, baseline)
}
