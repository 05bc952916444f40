package server

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"sparseorder/internal/admit"
	"sparseorder/internal/gen"
	"sparseorder/internal/reorder"
	"sparseorder/internal/sparse"
)

// mkEntry builds a minimal resident entry whose admission weight is bytes.
func mkEntry(key string, bytes int64) *entry {
	a := gen.Banded(4, 1, 1, 1)
	return &entry{
		key: key, alg: reorder.Original, mat: a, perm: sparse.Identity(a.Rows),
		rows: a.Rows, cols: a.Cols, nnz: a.NNZ(), bytes: bytes,
	}
}

// checkInvariants asserts the cache's books balance: the LRU list and the
// key index agree, resident bytes are the sum of entry weights, every
// admission belongs to a resident entry, and (when idle) nothing is pinned.
func checkInvariants(t *testing.T, c *Cache, wantIdle bool) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lru.Len() != len(c.byKey) {
		t.Errorf("lru has %d entries, index has %d", c.lru.Len(), len(c.byKey))
	}
	var sum int64
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		if c.byKey[e.key] != e {
			t.Errorf("entry %s in lru but not indexed", e.key)
		}
		sum += e.bytes
		if wantIdle && e.pins != 0 {
			t.Errorf("entry %s has %d pins while idle", e.key, e.pins)
		}
	}
	if sum != c.bytes {
		t.Errorf("resident bytes %d, entries sum to %d", c.bytes, sum)
	}
	for k := range c.adms {
		if c.byKey[k] == nil {
			t.Errorf("admission held for non-resident key %s", k)
		}
	}
}

func TestEntryBytes(t *testing.T) {
	if EntryBytes(-1, 5) != 0 || EntryBytes(5, -1) != 0 {
		t.Error("negative shapes should estimate 0")
	}
	if a, b := EntryBytes(10, 100), EntryBytes(10, 200); b <= a {
		t.Errorf("EntryBytes not monotone in nnz: %d vs %d", a, b)
	}
}

// TestCacheLRUEviction: under a byte budget fitting two entries, a third
// insert evicts the least recently used — where "used" includes Get — and
// the hit/miss/evict/insert counters and byte gauge track it all.
func TestCacheLRUEviction(t *testing.T) {
	o := newTestObs()
	gov := admit.NewGovernor(200, o)
	c := NewCache(gov, 100, o)

	for i, key := range []string{"a", "b"} {
		if err := c.Insert(mkEntry(key, 100)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	// Touch "a" so "b" is the LRU victim.
	e := c.Get("a")
	if e == nil {
		t.Fatal("a not resident")
	}
	c.Unpin(e)
	if c.Get("nope") != nil {
		t.Fatal("phantom entry")
	}

	if err := c.Insert(mkEntry("c", 100)); err != nil {
		t.Fatalf("insert c: %v", err)
	}
	if !c.Contains("a") || c.Contains("b") || !c.Contains("c") {
		t.Errorf("resident set a=%v b=%v c=%v, want a and c", c.Contains("a"), c.Contains("b"), c.Contains("c"))
	}
	if c.Bytes() != 200 || c.Len() != 2 {
		t.Errorf("bytes=%d len=%d, want 200/2", c.Bytes(), c.Len())
	}
	counts := map[string]uint64{
		"sparseorder_server_cache_hits_total":      1,
		"sparseorder_server_cache_misses_total":    1,
		"sparseorder_server_cache_evictions_total": 1,
		"sparseorder_server_cache_inserts_total":   3,
	}
	for name, want := range counts {
		if got := o.Metrics.Counter(name, "").Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := o.Metrics.Gauge("sparseorder_server_cache_bytes", "").Value(); got != 200 {
		t.Errorf("bytes gauge = %v, want 200", got)
	}
	checkInvariants(t, c, true)
}

// TestCachePinnedNeverEvicted is the satellite-6 guarantee at the cache
// layer: under a budget that fits a single entry, an insert that would need
// to evict a pinned entry fails instead — a request holding a plan can
// never observe its matrix being reclaimed.
func TestCachePinnedNeverEvicted(t *testing.T) {
	gov := admit.NewGovernor(100, nil)
	c := NewCache(gov, 100, newTestObs())
	if err := c.Insert(mkEntry("held", 100)); err != nil {
		t.Fatal(err)
	}
	e := c.Get("held") // an in-flight SpMV's pin
	if e == nil {
		t.Fatal("held not resident")
	}

	err := c.Insert(mkEntry("intruder", 100))
	if !errors.Is(err, ErrCacheFull) {
		t.Fatalf("insert over a pinned entry: err = %v, want ErrCacheFull", err)
	}
	if !c.Contains("held") || c.Contains("intruder") {
		t.Fatal("pinned entry displaced")
	}

	// Once the request finishes, the entry is reclaimable again.
	c.Unpin(e)
	if err := c.Insert(mkEntry("intruder", 100)); err != nil {
		t.Fatalf("insert after unpin: %v", err)
	}
	if c.Contains("held") || !c.Contains("intruder") {
		t.Fatal("LRU eviction after unpin did not happen")
	}
	checkInvariants(t, c, true)
}

// TestCacheEntryBound: with no governor the entry count is the only bound,
// and it too refuses to displace pinned entries.
func TestCacheEntryBound(t *testing.T) {
	c := NewCache(nil, 1, newTestObs())
	if err := c.Insert(mkEntry("one", 10)); err != nil {
		t.Fatal(err)
	}
	e := c.Get("one")
	if err := c.Insert(mkEntry("two", 10)); !errors.Is(err, ErrCacheFull) {
		t.Fatalf("err = %v, want ErrCacheFull", err)
	}
	c.Unpin(e)
	if err := c.Insert(mkEntry("two", 10)); err != nil {
		t.Fatal(err)
	}
	if c.Contains("one") || !c.Contains("two") {
		t.Fatal("entry bound not LRU")
	}
}

// TestCacheOversizedEntry: an entry that can never fit is a permanent
// resource refusal, distinct from transient fullness.
func TestCacheOversizedEntry(t *testing.T) {
	gov := admit.NewGovernor(100, nil)
	c := NewCache(gov, 100, newTestObs())
	if err := c.Insert(mkEntry("small", 40)); err != nil {
		t.Fatal(err)
	}
	err := c.Insert(mkEntry("huge", 101))
	if !errors.Is(err, admit.ErrResourceBudget) {
		t.Fatalf("err = %v, want ErrResourceBudget", err)
	}
	// The refusal must not have evicted anything trying.
	if !c.Contains("small") {
		t.Error("oversized insert evicted residents before refusing")
	}
}

// TestCacheDuplicateInsert: re-inserting a resident key keeps the original
// entry and does not double-count bytes or admissions.
func TestCacheDuplicateInsert(t *testing.T) {
	gov := admit.NewGovernor(100, nil)
	c := NewCache(gov, 100, newTestObs())
	if err := c.Insert(mkEntry("k", 60)); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(mkEntry("k", 60)); err != nil {
		t.Fatalf("duplicate insert: %v", err)
	}
	if c.Len() != 1 || c.Bytes() != 60 {
		t.Errorf("len=%d bytes=%d after duplicate insert, want 1/60", c.Len(), c.Bytes())
	}
	checkInvariants(t, c, true)
}

// TestServerPinnedEvictionEndToEnd drives satellite 6 through the HTTP
// layer: a daemon whose budget fits one cached matrix, with that matrix
// pinned by an in-flight SpMV, serves a second upload (200) but cannot
// cache it — and the pinned matrix keeps serving afterwards.
func TestServerPinnedEvictionEndToEnd(t *testing.T) {
	m1 := gen.Banded(80, 2, 1, 1)
	m2 := gen.Banded(300, 3, 1, 2)
	e1 := EntryBytes(m1.Rows, m1.NNZ())
	e2 := EntryBytes(m2.Rows, m2.NNZ())
	// The transient estimate must match what the upload path will actually
	// request: the predicted ordering, not a worst case over all of them.
	t2 := admit.EstimateMatrixBytes(m2.Rows, m2.NNZ(),
		[]reorder.Algorithm{Predict(m2, 1)})
	// Enough for m1 resident plus m2's transient reorder, but not for both
	// entries resident at once.
	budget := e1 + t2 + e2/2

	srv := mustNew(t, Config{Threads: 1, MemBudget: budget, Obs: newTestObs()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	res1, up1 := postUpload(t, ts, mmBytes(t, m1))
	if res1.StatusCode != http.StatusOK || !up1.Cached {
		t.Fatalf("m1 upload: %d cached=%v", res1.StatusCode, up1.Cached)
	}
	// Pin m1 exactly the way the SpMV handler does mid-request.
	pinned := srv.Cache().Get(up1.Key)
	if pinned == nil {
		t.Fatal("m1 not resident")
	}

	res2, up2 := postUpload(t, ts, mmBytes(t, m2))
	if res2.StatusCode != http.StatusOK {
		t.Fatalf("m2 upload status %d", res2.StatusCode)
	}
	if up2.Cached {
		t.Error("m2 cached despite the budget being pinned")
	}
	if !srv.Cache().Contains(up1.Key) {
		t.Fatal("pinned m1 was evicted")
	}
	srv.Cache().Unpin(pinned)

	// m1 still answers correctly.
	x := testVector(m1.Cols, 9)
	resS, raw := postSpMV(t, ts, up1.Key, x)
	if resS.StatusCode != http.StatusOK {
		t.Fatalf("m1 spmv after pressure: %d %s", resS.StatusCode, raw)
	}
	checkInvariants(t, srv.Cache(), true)
}

// TestCacheUnpinUnderflow: a second Unpin is a programming error, loudly.
func TestCacheUnpinUnderflow(t *testing.T) {
	c := NewCache(nil, 2, nil)
	if err := c.Insert(mkEntry("k", 1)); err != nil {
		t.Fatal(err)
	}
	e := c.Get("k")
	c.Unpin(e)
	defer func() {
		if recover() == nil {
			t.Error("double Unpin did not panic")
		}
	}()
	c.Unpin(e)
}
