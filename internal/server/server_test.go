package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"sparseorder/internal/failure"
	"sparseorder/internal/faultinject"
	"sparseorder/internal/gen"
	"sparseorder/internal/obs"
	"sparseorder/internal/reorder"
	"sparseorder/internal/sparse"
	"sparseorder/internal/spmv"
)

// mmBytes renders a as a Matrix Market document — the upload wire format.
func mmBytes(t *testing.T, a *sparse.CSR) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sparse.WriteMatrixMarket(&buf, a); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// testVector is the deterministic x the tests multiply with.
func testVector(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func newTestObs() *obs.Obs {
	return &obs.Obs{Metrics: obs.NewRegistry()}
}

// mustNew builds a daemon, failing the test on a construction error (the
// only source is an unusable StoreDir).
func mustNew(t testing.TB, cfg Config) *Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func postUpload(t *testing.T, ts *httptest.Server, body []byte) (*http.Response, uploadResponse) {
	t.Helper()
	res, err := ts.Client().Post(ts.URL+"/matrices", "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var up uploadResponse
	if res.StatusCode == http.StatusOK {
		if err := json.NewDecoder(res.Body).Decode(&up); err != nil {
			t.Fatalf("upload response: %v", err)
		}
	}
	return res, up
}

func postSpMV(t *testing.T, ts *httptest.Server, key string, x []float64) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(spmvRequest{X: x})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ts.Client().Post(ts.URL+"/spmv/"+key, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	raw, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res, raw
}

func decodeY(t *testing.T, raw []byte) []float64 {
	t.Helper()
	var resp spmvResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatalf("spmv response %q: %v", raw, err)
	}
	return resp.Y
}

// rectangular builds a rows×cols pattern with four distinct columns per
// row: a matrix the daemon serves unordered.
func rectangular(t *testing.T, rows, cols int, seed int64) *sparse.CSR {
	t.Helper()
	coo := sparse.NewCOO(rows, cols, 0)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < rows; i++ {
		for k := 0; k < 4; k++ {
			coo.Append(i, (i*7+k*11)%cols, rng.NormFloat64())
		}
	}
	a, err := coo.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// wantClose compares a served y against a serial multiply on the original
// matrix. A permutation reorders each row's dot-product terms, so only
// tolerance-level agreement is expected here; byte-identity is asserted
// between server responses (cached vs recomputed plans), where the term
// order is the same.
func wantClose(t *testing.T, y, ref []float64) {
	t.Helper()
	if len(y) != len(ref) {
		t.Fatalf("y has %d entries, want %d", len(y), len(ref))
	}
	for i := range ref {
		tol := 1e-9 * (math.Abs(ref[i]) + 1)
		if math.Abs(y[i]-ref[i]) > tol {
			t.Fatalf("y[%d] = %v, want %v (±%g)", i, y[i], ref[i], tol)
		}
	}
}

// wantClass decodes a classified error body and checks its class.
func wantClass(t *testing.T, res *http.Response, raw []byte, status int, class failure.FailureClass) {
	t.Helper()
	if res.StatusCode != status {
		t.Fatalf("status = %d (%s), want %d", res.StatusCode, raw, status)
	}
	var ae apiError
	if err := json.Unmarshal(raw, &ae); err != nil {
		t.Fatalf("error body %q not JSON: %v", raw, err)
	}
	if ae.Class != class {
		t.Errorf("class = %q, want %q (%s)", ae.Class, class, ae.Error)
	}
}

// TestUploadAndSpMV is the core serving contract: an uploaded matrix is
// reordered with the predicted ordering, and SpMV against the cached plan
// agrees with a serial multiply on the ORIGINAL matrix to within
// 1e-9·(|y[i]|+1) (a symmetric ordering changes each row's summation
// order, so the bits may differ). Responses are byte-identical when repeated and
// between the cached plan and one a second daemon recomputes.
func TestUploadAndSpMV(t *testing.T) {
	mats := []*sparse.CSR{
		gen.Banded(200, 4, 0.8, 1), // banded + balanced: RCM territory
		gen.RMAT(8, 8, 7),          // skewed: GP territory
	}
	srv := mustNew(t, Config{Threads: 2, Obs: newTestObs()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for mi, a := range mats {
		body := mmBytes(t, a)
		res, up := postUpload(t, ts, body)
		if res.StatusCode != http.StatusOK {
			t.Fatalf("matrix %d: upload status %d", mi, res.StatusCode)
		}
		sum := sha256.Sum256(body)
		if want := hex.EncodeToString(sum[:]); up.Key != want {
			t.Fatalf("matrix %d: key = %s, want content hash %s", mi, up.Key, want)
		}
		if !up.Cached {
			t.Errorf("matrix %d: not cached", mi)
		}
		if up.Rows != a.Rows || up.NNZ != a.NNZ() {
			t.Errorf("matrix %d: shape %dx? nnz %d, want %d / %d", mi, up.Rows, up.NNZ, a.Rows, a.NNZ())
		}

		x := testVector(a.Cols, int64(mi)+3)
		res2, raw := postSpMV(t, ts, up.Key, x)
		if res2.StatusCode != http.StatusOK {
			t.Fatalf("matrix %d: spmv status %d: %s", mi, res2.StatusCode, raw)
		}
		y := decodeY(t, raw)
		ref := make([]float64, a.Rows)
		if err := spmv.Serial(a, x, ref); err != nil {
			t.Fatal(err)
		}
		wantClose(t, y, ref)

		// Byte-identity, cached plan vs itself: repeating the request
		// reproduces the response exactly.
		res2b, raw2b := postSpMV(t, ts, up.Key, x)
		if res2b.StatusCode != http.StatusOK || !bytes.Equal(raw2b, raw) {
			t.Fatalf("matrix %d: repeated spmv differs (status %d)", mi, res2b.StatusCode)
		}

		// Byte-identity, cached vs freshly recomputed: a second daemon that
		// reorders the same bytes from scratch serves the identical response.
		srv2 := mustNew(t, Config{Threads: 2, Obs: newTestObs()})
		ts2 := httptest.NewServer(srv2.Handler())
		if res, up2 := postUpload(t, ts2, body); res.StatusCode != http.StatusOK || up2.Ordering != up.Ordering {
			t.Fatalf("matrix %d: recompute upload %d ordering %q vs %q", mi, res.StatusCode, up2.Ordering, up.Ordering)
		}
		resR, rawR := postSpMV(t, ts2, up.Key, x)
		if resR.StatusCode != http.StatusOK || !bytes.Equal(rawR, raw) {
			t.Fatalf("matrix %d: recomputed spmv differs from cached (status %d)\ncached:     %.80s\nrecomputed: %.80s",
				mi, resR.StatusCode, raw, rawR)
		}
		ts2.Close()

		// Re-uploading identical bytes answers from the cache.
		res3, up3 := postUpload(t, ts, body)
		if res3.StatusCode != http.StatusOK || !up3.Deduplicated {
			t.Errorf("matrix %d: duplicate upload status %d dedup %v", mi, res3.StatusCode, up3.Deduplicated)
		}

		// Metadata probe.
		mres, err := ts.Client().Get(ts.URL + "/matrices/" + up.Key)
		if err != nil {
			t.Fatal(err)
		}
		var meta Meta
		if err := json.NewDecoder(mres.Body).Decode(&meta); err != nil {
			t.Fatal(err)
		}
		mres.Body.Close()
		if meta.Key != up.Key || meta.NNZ != a.NNZ() || meta.Ordering != up.Ordering {
			t.Errorf("matrix %d: meta %+v disagrees with upload %+v", mi, meta, up)
		}
	}
}

// TestRectangularServed: non-square uploads cannot use the reordering
// pipeline (it requires A square); they must still be served, unordered.
func TestRectangularServed(t *testing.T) {
	a := rectangular(t, 60, 40, 5)
	srv := mustNew(t, Config{Threads: 2, Obs: newTestObs()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	res, up := postUpload(t, ts, mmBytes(t, a))
	if res.StatusCode != http.StatusOK {
		t.Fatalf("upload status %d", res.StatusCode)
	}
	if up.Ordering != string(reorder.Original) {
		t.Errorf("rectangular matrix ordered with %q, want original", up.Ordering)
	}
	x := testVector(a.Cols, 11)
	res2, raw := postSpMV(t, ts, up.Key, x)
	if res2.StatusCode != http.StatusOK {
		t.Fatalf("spmv status %d: %s", res2.StatusCode, raw)
	}
	y := decodeY(t, raw)
	ref := make([]float64, a.Rows)
	if err := spmv.Serial(a, x, ref); err != nil {
		t.Fatal(err)
	}
	wantClose(t, y, ref)
}

// TestClassifiedFailures pins the HTTP mapping of the failure taxonomy:
// bad input 400/error, unknown key 404/error, wrong-length x 400/error,
// injected decode fault 400/error, injected SpMV panic 500/panic, deadline
// expiry 504/timeout.
func TestClassifiedFailures(t *testing.T) {
	srv := mustNew(t, Config{Threads: 1, Obs: newTestObs()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Garbage upload.
	res, _ := ts.Client().Post(ts.URL+"/matrices", "text/plain", strings.NewReader("not a matrix"))
	raw, _ := io.ReadAll(res.Body)
	res.Body.Close()
	wantClass(t, res, raw, http.StatusBadRequest, failure.FailError)

	// Unknown key.
	res2, raw2 := postSpMV(t, ts, "deadbeef", []float64{1})
	wantClass(t, res2, raw2, http.StatusNotFound, failure.FailError)

	// Real upload for the x-length and fault cases.
	a := gen.Banded(50, 3, 1, 2)
	body := mmBytes(t, a)
	resUp, up := postUpload(t, ts, body)
	if resUp.StatusCode != http.StatusOK {
		t.Fatalf("upload status %d", resUp.StatusCode)
	}
	res3, raw3 := postSpMV(t, ts, up.Key, []float64{1, 2, 3})
	wantClass(t, res3, raw3, http.StatusBadRequest, failure.FailError)

	// Injected decode fault -> classified 400, keyed by content hash.
	other := mmBytes(t, gen.Banded(30, 2, 1, 9))
	sum := sha256.Sum256(other)
	okey := hex.EncodeToString(sum[:])
	faultinject.Activate(faultinject.NewPlan(1,
		faultinject.Rule{Point: faultinject.ServerDecode, Mode: faultinject.ModeError, Rate: 1}))
	res4, _ := ts.Client().Post(ts.URL+"/matrices", "text/plain", bytes.NewReader(other))
	raw4, _ := io.ReadAll(res4.Body)
	res4.Body.Close()
	faultinject.Activate(nil)
	wantClass(t, res4, raw4, http.StatusBadRequest, failure.FailError)
	if srv.cache.Contains(okey) {
		t.Error("decode-faulted upload landed in the cache")
	}

	// Injected panic on the SpMV path -> contained, classified, JSON.
	faultinject.Activate(faultinject.NewPlan(1,
		faultinject.Rule{Point: faultinject.ServerSpMV, Mode: faultinject.ModePanic, Rate: 1}))
	res5, raw5 := postSpMV(t, ts, up.Key, testVector(a.Cols, 1))
	faultinject.Activate(nil)
	wantClass(t, res5, raw5, http.StatusInternalServerError, failure.FailPanic)

	// Deadline: X-Deadline-Ms of 1ms with a 150ms injected delay before
	// the reorder -> the context expires inside the pipeline -> 504.
	faultinject.Activate(faultinject.NewPlan(1,
		faultinject.Rule{Point: faultinject.ServerReorder, Mode: faultinject.ModeDelay, Rate: 1, Param: 150}))
	req, err := http.NewRequest("POST", ts.URL+"/matrices", bytes.NewReader(other))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Deadline-Ms", "1")
	res6, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw6, _ := io.ReadAll(res6.Body)
	res6.Body.Close()
	faultinject.Activate(nil)
	wantClass(t, res6, raw6, http.StatusGatewayTimeout, failure.FailTimeout)

	// The first upload still serves correctly after all that.
	res7, raw7 := postSpMV(t, ts, up.Key, testVector(a.Cols, 1))
	if res7.StatusCode != http.StatusOK {
		t.Fatalf("post-chaos spmv status %d: %s", res7.StatusCode, raw7)
	}
}

// TestSpMVNonFiniteReply: an x that overflows the product has no JSON
// reply. It is answered 400/error naming the first non-finite row, not 200
// with an empty body, and the trace records the failure.
func TestSpMVNonFiniteReply(t *testing.T) {
	o := newTestObs()
	o.Requests = obs.NewTraceRing(8)
	srv := mustNew(t, Config{Threads: 1, Obs: o})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	coo := sparse.NewCOO(2, 2, 2)
	coo.Append(0, 0, 1e308)
	coo.Append(1, 1, 1e308)
	a, err := coo.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	res, up := postUpload(t, ts, mmBytes(t, a))
	if res.StatusCode != http.StatusOK {
		t.Fatalf("upload status %d", res.StatusCode)
	}
	res2, raw := postSpMV(t, ts, up.Key, []float64{1e308, 1})
	wantClass(t, res2, raw, http.StatusBadRequest, failure.FailError)
	if !strings.Contains(string(raw), "y[0]") {
		t.Errorf("error body %s does not name row 0", raw)
	}
	last := o.Requests.Snapshot(obs.ViewRecent, 1)
	if len(last) != 1 || last[0].Status != http.StatusBadRequest || last[0].Class != string(failure.FailError) {
		t.Errorf("trace of the non-finite reply: %+v, want status 400 class error", last)
	}
}

// TestOversizedBodyIs413: a body over MaxBody is a 413/resource refusal on
// both routes, the upload and the SpMV.
func TestOversizedBodyIs413(t *testing.T) {
	const maxBody = 300
	srv := mustNew(t, Config{Threads: 1, MaxBody: maxBody, Obs: newTestObs()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	small := mmBytes(t, gen.Banded(2, 1, 1, 3))
	if len(small) > maxBody {
		t.Fatalf("the small upload is %d bytes, over the cap", len(small))
	}
	res, up := postUpload(t, ts, small)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("upload status %d", res.StatusCode)
	}

	big := mmBytes(t, gen.Banded(40, 2, 1, 3))
	resUp, err := ts.Client().Post(ts.URL+"/matrices", "text/plain", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	rawUp, _ := io.ReadAll(resUp.Body)
	resUp.Body.Close()
	wantClass(t, resUp, rawUp, http.StatusRequestEntityTooLarge, failure.FailResource)

	body := `{"x":[1` + strings.Repeat(" ", maxBody) + `,2]}`
	resX, err := ts.Client().Post(ts.URL+"/spmv/"+up.Key, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	rawX, _ := io.ReadAll(resX.Body)
	resX.Body.Close()
	wantClass(t, resX, rawX, http.StatusRequestEntityTooLarge, failure.FailResource)
}

// TestSpMVLongBodyBounded: a body that carries far more numbers than the
// matrix has columns is a 400 of class error, and answering it allocates
// in proportion to the body, not to the numbers in it: the decoder stops
// at the column count instead of growing x with every number.
func TestSpMVLongBodyBounded(t *testing.T) {
	srv := mustNew(t, Config{Threads: 1, Obs: newTestObs()})
	h := srv.Handler()
	up := httptest.NewRecorder()
	h.ServeHTTP(up, httptest.NewRequest(http.MethodPost, "/matrices", bytes.NewReader(mmBytes(t, gen.Banded(3, 1, 1, 3)))))
	var ur uploadResponse
	if up.Code != http.StatusOK || json.Unmarshal(up.Body.Bytes(), &ur) != nil {
		t.Fatalf("upload: %d %s", up.Code, up.Body.String())
	}
	// 1 MiB of "0,": half a million numbers, 8 bytes each once decoded.
	body := []byte(`{"x":[` + strings.Repeat("0,", 1<<19) + `0]}`)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/spmv/"+ur.Key, bytes.NewReader(body)))
	runtime.ReadMemStats(&m1)
	res := w.Result()
	wantClass(t, res, w.Body.Bytes(), http.StatusBadRequest, failure.FailError)
	// Reading the body by doubling costs up to 4 bytes per body byte;
	// storing every number as well came to 24.
	if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc > 6*uint64(len(body)) {
		t.Errorf("a %d-byte body for a 3-column matrix allocated %d bytes", len(body), alloc)
	}
}

// TestUploadShapeBound: an upload whose size line declares more rows than
// half its length is refused with 413/resource before ingest allocates
// anything from the declared shape, with or without a budget and at the
// default body cap. Both hold at 1 and 3 ingest workers, and the refusal
// allocates under 64 KiB, where decoding the 10,000,000-row stream
// allocated about 200 MB.
func TestUploadShapeBound(t *testing.T) {
	const allocBound = 64 << 10
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"nobudget", Config{MemBudget: -1}},
		{"budget", Config{MemBudget: 64 << 20}},
	} {
		for _, workers := range []int{1, 3} {
			cfg := c.cfg
			cfg.Threads, cfg.IngestWorkers = 1, workers
			h := mustNew(t, cfg).Handler()
			for _, rows := range []int{10_000_000, math.MaxInt32} {
				t.Run(fmt.Sprintf("%s/workers=%d/rows=%d", c.name, workers, rows), func(t *testing.T) {
					body := fmt.Sprintf("%%%%MatrixMarket matrix coordinate real general\n%d %d 0\n", rows, rows)
					req := httptest.NewRequest(http.MethodPost, "/matrices", strings.NewReader(body))
					w := httptest.NewRecorder()
					var m0, m1 runtime.MemStats
					runtime.GC()
					runtime.ReadMemStats(&m0)
					h.ServeHTTP(w, req)
					runtime.ReadMemStats(&m1)
					wantClass(t, w.Result(), w.Body.Bytes(), http.StatusRequestEntityTooLarge, failure.FailResource)
					if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc > allocBound {
						t.Errorf("refusing a %d-byte upload allocated %d bytes", len(body), alloc)
					}
				})
			}
		}
	}
}

// TestShedQueueFull: with the only work slot held and no queue, a new
// request is shed with 429 + Retry-After, and /readyz reports overload
// once the governor saturates.
func TestShedQueueFull(t *testing.T) {
	srv := mustNew(t, Config{Threads: 1, MaxInflight: 1, Queue: -1, Obs: newTestObs()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Hold the single work slot; the next arrival must wait...
	srv.slots <- struct{}{}
	body := mmBytes(t, gen.Banded(40, 2, 1, 3))
	done := make(chan int, 1)
	go func() {
		res, err := ts.Client().Post(ts.URL+"/matrices", "text/plain", bytes.NewReader(body))
		if err != nil {
			done <- -1
			return
		}
		res.Body.Close()
		done <- res.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.queued.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never queued")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// ...and a second arrival beyond the bound is shed immediately.
	res, err := ts.Client().Post(ts.URL+"/matrices", "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(res.Body)
	res.Body.Close()
	wantClass(t, res, raw, http.StatusTooManyRequests, failure.FailResource)
	if got := res.Header.Get("Retry-After"); got != "1" {
		t.Errorf("429 Retry-After = %q, want \"1\"", got)
	}
	shed := srv.cfg.Obs.Metrics.Counter("sparseorder_server_shed_total",
		"requests shed with 429 because the queue or memory governor was saturated").Value()
	if shed == 0 {
		t.Error("shed counter stayed zero")
	}

	// Release the slot; the queued request completes normally.
	<-srv.slots
	if code := <-done; code != http.StatusOK {
		t.Fatalf("queued request finished %d, want 200", code)
	}
}

// TestGovernorShedsUploads: a saturated memory governor sheds uploads with
// 429 and flips /readyz to overloaded, and an upload whose working set can
// never fit is refused permanently with 413/resource.
func TestGovernorShedsUploads(t *testing.T) {
	srv := mustNew(t, Config{Threads: 1, MemBudget: 1 << 20, Obs: newTestObs()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	readyz := func() int {
		res, err := ts.Client().Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
		return res.StatusCode
	}
	if code := readyz(); code != http.StatusOK {
		t.Fatalf("/readyz = %d before load", code)
	}

	// Hold the whole budget: uploads must shed, readyz must flip.
	adm, err := srv.Governor().TryAcquire("test-hold", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	body := mmBytes(t, gen.Banded(100, 3, 1, 4))
	res, err := ts.Client().Post(ts.URL+"/matrices", "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(res.Body)
	res.Body.Close()
	wantClass(t, res, raw, http.StatusTooManyRequests, failure.FailResource)
	if code := readyz(); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz = %d under saturation, want 503", code)
	}
	adm.Release()

	if code := readyz(); code != http.StatusOK {
		t.Fatalf("/readyz = %d after release", code)
	}
	res2, _ := postUpload(t, ts, body)
	if res2.StatusCode != http.StatusOK {
		t.Fatalf("upload after release = %d", res2.StatusCode)
	}

	// A matrix whose transient working set exceeds the whole budget is a
	// permanent resource refusal, not a shed.
	big := mmBytes(t, gen.Grid2D(260, 260)) // ~67k rows, ~336k nnz: est >> 1MiB
	res3, err := ts.Client().Post(ts.URL+"/matrices", "text/plain", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	raw3, _ := io.ReadAll(res3.Body)
	res3.Body.Close()
	wantClass(t, res3, raw3, http.StatusRequestEntityTooLarge, failure.FailResource)
}

// TestHealthEndpoints: healthz stays 200 through drain (liveness), readyz
// flips 503 (acceptance); both report the drain in their body.
func TestHealthEndpoints(t *testing.T) {
	srv := mustNew(t, Config{Threads: 1, Obs: newTestObs()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) (int, healthState) {
		res, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		var st healthState
		if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return res.StatusCode, st
	}
	if code, st := get("/healthz"); code != 200 || st.Status != "ok" {
		t.Errorf("/healthz = %d %q", code, st.Status)
	}
	if code, st := get("/readyz"); code != 200 || st.Status != "ready" {
		t.Errorf("/readyz = %d %q", code, st.Status)
	}
	srv.BeginDrain()
	if code, st := get("/healthz"); code != 200 || st.Status != "draining" {
		t.Errorf("draining /healthz = %d %q, want 200 draining", code, st.Status)
	}
	if code, st := get("/readyz"); code != 503 || st.Status != "draining" {
		t.Errorf("draining /readyz = %d %q, want 503 draining", code, st.Status)
	}
}

// TestTelemetryMounted: the daemon's handler exposes the same telemetry
// surface as cmd/study -http, including the server's own request counters.
func TestTelemetryMounted(t *testing.T) {
	srv := mustNew(t, Config{Threads: 1, Obs: newTestObs()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if _, up := postUpload(t, ts, mmBytes(t, gen.Banded(30, 2, 1, 6))); up.Key == "" {
		t.Fatal("upload failed")
	}
	res, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(res.Body)
	res.Body.Close()
	text := string(raw)
	for _, want := range []string{
		"sparseorder_server_requests_total",
		"sparseorder_server_request_seconds",
		"sparseorder_server_cache_inserts_total",
		"sparseorder_server_cache_bytes",
		fmt.Sprintf("route=%q", "upload"),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	if res, err := ts.Client().Get(ts.URL + "/debug/pprof/"); err != nil || res.StatusCode != 200 {
		t.Errorf("/debug/pprof/ = %v %v", res, err)
	} else {
		res.Body.Close()
	}
}
