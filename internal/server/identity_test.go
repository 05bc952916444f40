package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"sparseorder/internal/gen"
	"sparseorder/internal/reorder"
	"sparseorder/internal/sparse"
)

// TestSpMVReplyByteIdentity asserts the byte-identity the serving
// contract promises, for every ordering Predict can pick (Original for a
// rectangular matrix, RCM for a banded one, GP for a scrambled grid): the
// SpMV reply for the same x is the same bytes on a cache hit, after the
// entry is evicted and the matrix re-uploaded and reordered again, after a
// warm restart from the store, and on a daemon reordering with two
// workers instead of one. Each reply also carries a correct Content-Length
// and equals encoding/json's bytes for the same y.
func TestSpMVReplyByteIdentity(t *testing.T) {
	cases := []struct {
		name string
		a    *sparse.CSR
		want reorder.Algorithm
	}{
		{"rectangular", rectangular(t, 60, 40, 5), reorder.Original},
		{"banded", gen.Banded(200, 4, 0.8, 1), reorder.RCM},
		{"scrambled_grid", gen.Scramble(gen.Grid2D(16, 16), 3), reorder.GP},
	}
	filler := mmBytes(t, gen.Banded(50, 2, 1, 77))
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body := mmBytes(t, tc.a)
			x := testVector(tc.a.Cols, int64(ci)+21)
			spmv := func(ts *httptest.Server, key, step string) []byte {
				t.Helper()
				res, raw := postSpMV(t, ts, key, x)
				if res.StatusCode != http.StatusOK {
					t.Fatalf("%s: spmv status %d: %s", step, res.StatusCode, raw)
				}
				if cl := res.Header.Get("Content-Length"); cl != strconv.Itoa(len(raw)) {
					t.Errorf("%s: Content-Length %q for a %d-byte reply", step, cl, len(raw))
				}
				if want := stdlibReply(t, decodeY(t, raw)); !bytes.Equal(raw, want) {
					t.Errorf("%s: reply differs from encoding/json's bytes for the same y", step)
				}
				return raw
			}
			upload := func(ts *httptest.Server, b []byte, step string) uploadResponse {
				t.Helper()
				res, up := postUpload(t, ts, b)
				if res.StatusCode != http.StatusOK {
					t.Fatalf("%s: upload status %d", step, res.StatusCode)
				}
				return up
			}

			// A one-entry cache, so the filler upload evicts the matrix.
			dir := t.TempDir()
			cfgA := storeCfg(dir)
			cfgA.CacheEntries = 1
			srvA := mustNew(t, cfgA)
			mustRecover(t, srvA)
			tsA := httptest.NewServer(srvA.Handler())
			up := upload(tsA, body, "first upload")
			if up.Ordering != string(tc.want) {
				t.Fatalf("ordered with %s, want %s", up.Ordering, tc.want)
			}
			ref := spmv(tsA, up.Key, "first request")

			if got := spmv(tsA, up.Key, "cache hit"); !bytes.Equal(got, ref) {
				t.Error("cache hit: reply differs")
			}

			upload(tsA, filler, "filler upload")
			if srvA.cache.Contains(up.Key) {
				t.Fatal("the filler upload did not evict the matrix")
			}
			if again := upload(tsA, body, "re-upload"); again.Deduplicated || !again.Cached {
				t.Fatalf("re-upload after eviction: deduplicated %v cached %v, want a fresh reorder", again.Deduplicated, again.Cached)
			}
			if got := spmv(tsA, up.Key, "recompute"); !bytes.Equal(got, ref) {
				t.Error("recompute after eviction: reply differs")
			}
			tsA.Close()

			srvB := mustNew(t, storeCfg(dir))
			if st := mustRecover(t, srvB); st.Recovered != 2 {
				t.Fatalf("warm restart recovered %+v, want both entries", st)
			}
			tsB := httptest.NewServer(srvB.Handler())
			if got := spmv(tsB, up.Key, "warm restart"); !bytes.Equal(got, ref) {
				t.Error("warm restart: reply differs")
			}
			tsB.Close()

			srvC := mustNew(t, Config{Threads: 2, ReorderWorkers: 2, Obs: newTestObs()})
			tsC := httptest.NewServer(srvC.Handler())
			defer tsC.Close()
			if upC := upload(tsC, body, "two-worker upload"); upC.Ordering != up.Ordering {
				t.Fatalf("two-worker daemon ordered with %s, want %s", upC.Ordering, up.Ordering)
			}
			if got := spmv(tsC, up.Key, "two reorder workers"); !bytes.Equal(got, ref) {
				t.Error("ReorderWorkers 2: reply differs from ReorderWorkers 1")
			}
		})
	}
}
