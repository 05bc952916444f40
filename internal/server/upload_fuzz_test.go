package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sparseorder/internal/failure"
	"sparseorder/internal/sparse"
)

// fuzzMaxBody is the body cap of the daemon FuzzUploadSpMV drives, small
// enough that the fuzzer reaches it.
const fuzzMaxBody = 4096

// fuzzIngestWorkers is the daemon's decode parallelism; the harness's own
// read of each upload uses the same count, so the chunk a decode error
// names is the same in both.
const fuzzIngestWorkers = 3

// FuzzUploadSpMV sends an arbitrary Matrix Market upload and an arbitrary
// SpMV body through the daemon's Handler, in memory. An upload over the
// body cap, or one whose size line declares a dimension above half the
// upload's length, must be refused with 413/resource. Any other upload
// must be accepted exactly when sparse.ReadMatrixMarketWorkers accepts it,
// with the reader's shape; a rejection must carry the reader's error
// message. The SpMV must answer 200 with one y per matrix row, or a
// classified JSON apiError with a 4xx or 5xx status. Every other response,
// and any panic, fails. The seed corpus
// (testdata/fuzz/FuzzUploadSpMV) holds the ingest edge corpus and the
// exotic value spellings, each with a matching and a mismatched x.
func FuzzUploadSpMV(f *testing.F) {
	srv := mustNew(f, Config{
		Threads:       2,
		IngestWorkers: fuzzIngestWorkers,
		MaxBody:       fuzzMaxBody,
		MemBudget:     64 << 20,
		CacheEntries:  8,
		Deadline:      10 * time.Second,
	})
	h := srv.Handler()
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.5\n2 2 -3\n"), []byte(`{"x":[1,2]}`))
	f.Fuzz(func(t *testing.T, upload, spmvBody []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/matrices", bytes.NewReader(upload)))
		if len(upload) > fuzzMaxBody || declaresShapeOver(upload) {
			if e := checkAPIError(t, "upload", rec); rec.Code != http.StatusRequestEntityTooLarge || e.Class != failure.FailResource {
				t.Fatalf("upload over the cap or the shape bound answered %d %s, want 413 resource", rec.Code, e.Class)
			}
			return
		}
		want, werr := sparse.ReadMatrixMarketWorkers(bytes.NewReader(upload), fuzzIngestWorkers)
		if rec.Code != http.StatusOK {
			e := checkAPIError(t, "upload", rec)
			switch {
			case werr == nil && rec.Code < 500 && rec.Code != http.StatusTooManyRequests:
				t.Fatalf("upload the reader accepts answered %d: %s", rec.Code, e.Error)
			case werr != nil && (rec.Code != http.StatusBadRequest || e.Error != werr.Error()):
				t.Fatalf("upload answered %d %q, the reader says %q", rec.Code, e.Error, werr)
			}
			return
		}
		var up uploadResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &up); err != nil {
			t.Fatalf("upload 200 body %q: %v", rec.Body.Bytes(), err)
		}
		if werr != nil {
			t.Fatalf("upload accepted, the reader says %q", werr)
		}
		if up.Rows != want.Rows || up.Cols != want.Cols || up.NNZ != want.NNZ() {
			t.Fatalf("upload answered %dx%d nnz %d, the reader reads %dx%d nnz %d",
				up.Rows, up.Cols, up.NNZ, want.Rows, want.Cols, want.NNZ())
		}

		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/spmv/"+up.Key, bytes.NewReader(spmvBody)))
		if rec.Code != http.StatusOK {
			checkAPIError(t, "spmv", rec)
			return
		}
		var resp spmvResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("spmv 200 body %q: %v", rec.Body.Bytes(), err)
		}
		if len(resp.Y) != up.Rows {
			t.Fatalf("spmv answered %d values for %d rows", len(resp.Y), up.Rows)
		}
	})
}

// checkAPIError fails t unless rec holds a 4xx or 5xx JSON apiError with a
// message and a known failure class, and returns it.
func checkAPIError(t *testing.T, route string, rec *httptest.ResponseRecorder) apiError {
	t.Helper()
	if rec.Code < 400 || rec.Code > 599 {
		t.Fatalf("%s answered %d: %q", route, rec.Code, rec.Body.Bytes())
	}
	var e apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("%s %d body %q is not an apiError: %v", route, rec.Code, rec.Body.Bytes(), err)
	}
	switch e.Class {
	case failure.FailError, failure.FailTimeout, failure.FailCanceled, failure.FailPanic, failure.FailResource:
	default:
		t.Fatalf("%s %d carries class %q", route, rec.Code, e.Class)
	}
	if e.Class == failure.FailPanic {
		t.Fatalf("%s recovered a panic: %s", route, e.Error)
	}
	if e.Error == "" {
		t.Fatalf("%s %d carries no message", route, rec.Code)
	}
	return e
}

// declaresShapeOver reports whether the upload's banner and size line
// parse and declare a dimension above half the upload's length, the shape
// the daemon refuses before decoding.
func declaresShapeOver(upload []byte) bool {
	rows, cols, _, err := sparse.ReadMatrixMarketShape(bytes.NewReader(upload))
	return err == nil && max(rows, cols) > len(upload)/2
}
