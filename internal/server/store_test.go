package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sparseorder/internal/faultinject"
	"sparseorder/internal/gen"
	"sparseorder/internal/sparse"
)

// storeCfg is the daemon configuration the store tests share: a store
// under dir and fixed threads so entries bind to one config.
func storeCfg(dir string) Config {
	return Config{
		Threads:  2,
		StoreDir: dir,
		Obs:      newTestObs(),
	}
}

// mustRecover runs a recovery pass, failing the test on error.
func mustRecover(t *testing.T, srv *Server) RecoveryStats {
	t.Helper()
	st, err := srv.Recover(context.Background())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if got := st.Recovered + st.Quarantined + st.Skipped; got != st.Scanned {
		t.Fatalf("recovery books don't reconcile: %d recovered + %d quarantined + %d skipped != %d scanned",
			st.Recovered, st.Quarantined, st.Skipped, st.Scanned)
	}
	return st
}

// entryFiles lists the entry filenames currently in the store directory.
func entryFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, "entries"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range ents {
		if strings.HasSuffix(de.Name(), storeEntrySuffix) {
			names = append(names, de.Name())
		}
	}
	return names
}

// TestStoreRoundTripRestart is the durability happy path: upload through a
// store-backed daemon, restart onto the same directory, and every key
// serves a byte-identical SpMV response from the recovered plans — no
// re-upload, no re-reorder — while the store root holds nothing but
// entries/ and quarantine/.
func TestStoreRoundTripRestart(t *testing.T) {
	dir := t.TempDir()
	srcs := []*sparse.CSR{
		gen.Banded(90, 3, 1, 1),
		gen.Grid2D(9, 9),
		gen.RMAT(6, 4, 3),
	}

	srvA := mustNew(t, storeCfg(dir))
	mustRecover(t, srvA) // empty store: flips recovering -> ready
	tsA := httptest.NewServer(srvA.Handler())

	type target struct {
		key  string
		x    []float64
		want []byte
	}
	targets := make([]target, len(srcs))
	for i, a := range srcs {
		res, up := postUpload(t, tsA, mmBytes(t, a))
		if res.StatusCode != http.StatusOK {
			t.Fatalf("upload %d: %d", i, res.StatusCode)
		}
		if !up.Persisted {
			t.Errorf("upload %d: not persisted with a store configured", i)
		}
		x := testVector(a.Cols, int64(i))
		sres, raw := postSpMV(t, tsA, up.Key, x)
		if sres.StatusCode != http.StatusOK {
			t.Fatalf("spmv %d: %d %s", i, sres.StatusCode, raw)
		}
		targets[i] = target{key: up.Key, x: x, want: raw}
	}
	tsA.Close()

	srvB := mustNew(t, storeCfg(dir))
	st := mustRecover(t, srvB)
	if st.Recovered != len(srcs) || st.Quarantined != 0 || st.Skipped != 0 {
		t.Fatalf("recovery = %+v, want %d recovered cleanly", st, len(srcs))
	}
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()
	for i, tg := range targets {
		res, raw := postSpMV(t, tsB, tg.key, tg.x)
		if res.StatusCode != http.StatusOK {
			t.Fatalf("recovered spmv %d: %d %s", i, res.StatusCode, raw)
		}
		if !bytes.Equal(raw, tg.want) {
			t.Errorf("recovered spmv %d: response differs from pre-restart daemon", i)
		}
	}
	checkInvariants(t, srvB.cache, true)

	// The last-access stamps live in the entry files' mtimes, so after
	// both daemons' uploads and SpMVs the root holds only the two
	// directories.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range ents {
		names = append(names, de.Name())
	}
	if got := strings.Join(names, " "); got != "entries quarantine" {
		t.Errorf("store root holds %q, want exactly \"entries quarantine\"", got)
	}
}

// TestStoreReadyzRecovering pins the readiness state machine around
// recovery: with a store configured, /readyz answers 503 "recovering"
// (naming the entries remaining) until Recover completes, while /healthz
// stays 200 throughout.
func TestStoreReadyzRecovering(t *testing.T) {
	dir := t.TempDir()
	srvA := mustNew(t, storeCfg(dir))
	mustRecover(t, srvA)
	tsA := httptest.NewServer(srvA.Handler())
	if res, _ := postUpload(t, tsA, mmBytes(t, gen.Banded(60, 2, 1, 1))); res.StatusCode != http.StatusOK {
		t.Fatalf("upload: %d", res.StatusCode)
	}
	tsA.Close()

	// Restarted daemon, recovery NOT yet run: the window cmd/serve covers
	// by starting Recover in a goroutine behind the live listener.
	srvB := mustNew(t, storeCfg(dir))
	defer mustRecover(t, srvB)
	ts := httptest.NewServer(srvB.Handler())
	defer ts.Close()

	get := func(path string) (int, healthState) {
		t.Helper()
		res, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		var hs healthState
		if err := json.NewDecoder(res.Body).Decode(&hs); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return res.StatusCode, hs
	}
	if code, hs := get("/readyz"); code != http.StatusServiceUnavailable || hs.Status != "recovering" {
		t.Errorf("/readyz before recovery = %d %q, want 503 recovering", code, hs.Status)
	}
	if code, hs := get("/healthz"); code != http.StatusOK || hs.Status != "ok" {
		t.Errorf("/healthz during recovery = %d %q, want 200 ok", code, hs.Status)
	}

	mustRecover(t, srvB)
	if code, hs := get("/readyz"); code != http.StatusOK || hs.Status != "ready" {
		t.Errorf("/readyz after recovery = %d %q, want 200 ready", code, hs.Status)
	}
	if srvA.recovering.Load() { // srvA finished long ago; sanity
		t.Error("finished daemon still recovering")
	}
}

// TestStoreQuarantineClassification damages persisted entries in four
// distinct ways — truncation, a flipped payload byte, a garbage header,
// and a stale format version — plus one entry bound to a different
// daemon config, and asserts recovery classifies each into quarantine/
// with the right reason, recovers the untouched rest, and never fails
// the boot. Quarantined keys 404; the books reconcile.
func TestStoreQuarantineClassification(t *testing.T) {
	dir := t.TempDir()
	srvA := mustNew(t, storeCfg(dir))
	mustRecover(t, srvA)
	tsA := httptest.NewServer(srvA.Handler())
	var keys []string
	for i := 0; i < 6; i++ {
		res, up := postUpload(t, tsA, mmBytes(t, gen.Banded(50+i*5, 2, 1, int64(i))))
		if res.StatusCode != http.StatusOK {
			t.Fatalf("upload %d: %d", i, res.StatusCode)
		}
		keys = append(keys, up.Key)
	}
	tsA.Close()

	path := func(key string) string { return filepath.Join(dir, "entries", key+storeEntrySuffix) }
	read := func(key string) []byte {
		data, err := os.ReadFile(path(key))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	write := func(key string, data []byte) {
		if err := os.WriteFile(path(key), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rewriteHeader := func(key string, mutate func(*storeHeader)) {
		data := read(key)
		nl := bytes.IndexByte(data, '\n')
		var h storeHeader
		if err := json.Unmarshal(data[:nl], &h); err != nil {
			t.Fatal(err)
		}
		mutate(&h)
		hb, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		write(key, append(append(hb, '\n'), data[nl+1:]...))
	}

	// keys[0]: truncated mid-payload (the kill -9 shape an atomic write
	// prevents, planted directly to prove detection is independent).
	data := read(keys[0])
	write(keys[0], data[:len(data)-7])
	// keys[1]: one payload byte flipped — silent bit rot.
	data = read(keys[1])
	data[len(data)-3] ^= 0x40
	write(keys[1], data)
	// keys[2]: header line replaced with garbage.
	data = read(keys[2])
	nl := bytes.IndexByte(data, '\n')
	write(keys[2], append([]byte("{not json"+strings.Repeat("!", nl-9)+"\n"), data[nl+1:]...))
	// keys[3]: written by a future format version.
	rewriteHeader(keys[3], func(h *storeHeader) { h.Version = storeVersion + 1 })
	// keys[4]: bound to a different daemon seed.
	rewriteHeader(keys[4], func(h *storeHeader) { h.Seed++ })
	// keys[5] stays intact.

	srvB := mustNew(t, storeCfg(dir))
	st := mustRecover(t, srvB)
	if st.Recovered != 1 || st.Quarantined != 5 || st.Skipped != 0 {
		t.Fatalf("recovery = %+v, want 1 recovered / 5 quarantined", st)
	}

	wantReasons := map[string]string{
		keys[0]: quarTruncated,
		keys[1]: quarChecksum,
		keys[2]: quarHeader,
		keys[3]: quarStaleVersion,
		keys[4]: quarConfigMismatch,
	}
	for key, want := range wantReasons {
		base := key + storeEntrySuffix
		if _, err := os.Stat(filepath.Join(dir, "quarantine", base)); err != nil {
			t.Errorf("%s: entry not in quarantine: %v", want, err)
		}
		doc, err := os.ReadFile(filepath.Join(dir, "quarantine", base+".reason"))
		if err != nil {
			t.Errorf("%s: no reason file: %v", want, err)
			continue
		}
		var r struct {
			Reason string `json:"reason"`
		}
		if err := json.Unmarshal(doc, &r); err != nil || r.Reason != want {
			t.Errorf("reason for %.12s = %q (%v), want %q", key, r.Reason, err, want)
		}
		if _, err := os.Stat(path(key)); !os.IsNotExist(err) {
			t.Errorf("%s: quarantined entry still in entries/", want)
		}
	}

	ts := httptest.NewServer(srvB.Handler())
	defer ts.Close()
	for key, reason := range wantReasons {
		if res, raw := postSpMV(t, ts, key, testVector(10, 1)); res.StatusCode != http.StatusNotFound {
			t.Errorf("quarantined (%s) key served: %d %s", reason, res.StatusCode, raw)
		}
	}
	checkInvariants(t, srvB.cache, true)
}

// TestStoreRecoveryLRUAndOverflow checks the governor-respecting side of
// recovery: with the restarted cache bounded below the store size, the
// most recently ACCESSED entries (per the entry files' mtimes, not upload
// order) are recovered, the overflow entry is skipped — left on disk
// unloaded, not quarantined — and the rebuilt LRU list evicts in true
// recency order. A second restart after the test sets the mtimes itself,
// to an order unlike both upload and access order, follows the mtimes.
func TestStoreRecoveryLRUAndOverflow(t *testing.T) {
	dir := t.TempDir()
	srcs := []*sparse.CSR{
		gen.Banded(60, 2, 1, 1),
		gen.Banded(70, 2, 1, 2),
		gen.Banded(80, 2, 1, 3),
	}
	srvA := mustNew(t, storeCfg(dir))
	mustRecover(t, srvA)
	tsA := httptest.NewServer(srvA.Handler())
	keys := make([]string, len(srcs))
	for i, a := range srcs {
		res, up := postUpload(t, tsA, mmBytes(t, a))
		if res.StatusCode != http.StatusOK {
			t.Fatalf("upload %d: %d", i, res.StatusCode)
		}
		keys[i] = up.Key
	}
	// Access order: key2, then key0 — so recency is key0 > key2 > key1.
	for _, i := range []int{2, 0} {
		if res, raw := postSpMV(t, tsA, keys[i], testVector(srcs[i].Cols, 9)); res.StatusCode != http.StatusOK {
			t.Fatalf("spmv %d: %d %s", i, res.StatusCode, raw)
		}
	}
	tsA.Close()

	// restart recovers dir into a two-entry cache and checks it against
	// recency, the key indices from most to least recently used.
	restart := func(why string, recency [3]int) {
		t.Helper()
		cfg := storeCfg(dir)
		cfg.CacheEntries = 2
		srv := mustNew(t, cfg)
		st := mustRecover(t, srv)
		if st.Recovered != 2 || st.Skipped != 1 || st.Quarantined != 0 {
			t.Fatalf("%s: recovery = %+v, want 2 recovered / 1 skipped", why, st)
		}
		// The skipped entry stays on disk, unloaded.
		if got := len(entryFiles(t, dir)); got != 3 {
			t.Errorf("%s: %d entry files after recovery, want all 3 still on disk", why, got)
		}
		if srv.cache.Contains(keys[recency[2]]) {
			t.Errorf("%s: least recently used key %d resident; stamps not honored", why, recency[2])
		}
		for _, i := range recency[:2] {
			if !srv.cache.Contains(keys[i]) {
				t.Errorf("%s: recently used key %d not recovered", why, i)
			}
		}
		// Rebuilt LRU order: the front is the most recently used.
		c := srv.cache
		c.mu.Lock()
		front := c.lru.Front().Value.(*entry).key
		c.mu.Unlock()
		if front != keys[recency[0]] {
			t.Errorf("%s: LRU front is %.12s, want most recently used %.12s", why, front, keys[recency[0]])
		}
		checkInvariants(t, c, true)
	}
	restart("access order", [3]int{0, 2, 1})

	// Stamp the files key1 > key2 > key0. The stamps lie in the future,
	// because a stamp counts only where it is later than the header's save
	// time.
	future := time.Now().Add(time.Hour)
	for rank, i := range []int{1, 2, 0} {
		mt := future.Add(-time.Duration(rank) * time.Second)
		if err := os.Chtimes(filepath.Join(dir, "entries", keys[i]+storeEntrySuffix), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	restart("mtime order", [3]int{1, 2, 0})
}

// TestStoreStampThrottled: an SpMV stamps its entry file's mtime, and a
// second SpMV on the same entry within storeStampInterval leaves the
// mtime unchanged — a hot entry costs at most one Chtimes an interval.
func TestStoreStampThrottled(t *testing.T) {
	dir := t.TempDir()
	srv := mustNew(t, storeCfg(dir))
	mustRecover(t, srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	a := gen.Banded(60, 2, 1, 1)
	res, up := postUpload(t, ts, mmBytes(t, a))
	if res.StatusCode != http.StatusOK || !up.Persisted {
		t.Fatalf("upload: %d (persisted %v)", res.StatusCode, up.Persisted)
	}
	path := filepath.Join(dir, "entries", up.Key+storeEntrySuffix)
	mtime := func() time.Time {
		t.Helper()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.ModTime()
	}
	written := mtime()
	start := time.Now()
	spmvOK := func() {
		t.Helper()
		if res, raw := postSpMV(t, ts, up.Key, testVector(a.Cols, 1)); res.StatusCode != http.StatusOK {
			t.Fatalf("spmv: %d %s", res.StatusCode, raw)
		}
	}
	spmvOK()
	first := mtime()
	if !first.After(written) {
		t.Errorf("first SpMV left the mtime at %v, the write time", first)
	}
	spmvOK()
	second := mtime()
	if time.Since(start) >= storeStampInterval {
		t.Skip("the two SpMVs took longer than the stamp interval on this host")
	}
	if !second.Equal(first) {
		t.Errorf("second SpMV within the interval moved the mtime %v -> %v", first, second)
	}
}

// TestStoreRecoveryBudgetOverflow drives the byte-weighted admission
// path: a restart under a memory budget too small for the whole store
// recovers what fits in LRU order and skips the rest on disk.
func TestStoreRecoveryBudgetOverflow(t *testing.T) {
	dir := t.TempDir()
	srvA := mustNew(t, storeCfg(dir))
	mustRecover(t, srvA)
	tsA := httptest.NewServer(srvA.Handler())
	var total int64
	for i := 0; i < 3; i++ {
		res, up := postUpload(t, tsA, mmBytes(t, gen.Banded(100, 3, 1, int64(i))))
		if res.StatusCode != http.StatusOK {
			t.Fatalf("upload %d: %d", i, res.StatusCode)
		}
		total += EntryBytes(up.Rows, up.NNZ)
	}
	tsA.Close()

	cfg := storeCfg(dir)
	cfg.MemBudget = total - 1 // not all three fit
	srvB := mustNew(t, cfg)
	st := mustRecover(t, srvB)
	if st.Skipped == 0 || st.Recovered == 0 || st.Quarantined != 0 {
		t.Fatalf("recovery = %+v, want a recovered/skipped split under the budget", st)
	}
	if got := len(entryFiles(t, dir)); got != 3 {
		t.Errorf("%d entry files after recovery, want 3", got)
	}
	checkInvariants(t, srvB.cache, true)
}

// TestStoreWriteFailureDegrades pins the persist-failure contract: with
// store/write faulted the upload still answers 200 (persisted=false, a
// durability loss, not a request failure), and the next upload of the
// same matrix — the dedupe path — heals the store once the fault clears.
func TestStoreWriteFailureDegrades(t *testing.T) {
	dir := t.TempDir()
	srv := mustNew(t, storeCfg(dir))
	mustRecover(t, srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	faultinject.Activate(faultinject.NewPlan(1,
		faultinject.Rule{Point: faultinject.StoreWrite, Mode: faultinject.ModeENOSPC, Rate: 1}))
	defer faultinject.Activate(nil)

	body := mmBytes(t, gen.Banded(70, 2, 1, 5))
	res, up := postUpload(t, ts, body)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("upload under store fault: %d", res.StatusCode)
	}
	if up.Persisted {
		t.Error("upload claims persisted while store/write faulted")
	}
	if srv.store.has(up.Key) {
		t.Error("entry file exists despite injected write failure")
	}

	// Fault cleared: the dedupe path re-persists the resident entry.
	faultinject.Activate(nil)
	res, up = postUpload(t, ts, body)
	if res.StatusCode != http.StatusOK || !up.Deduplicated {
		t.Fatalf("dedupe upload: %d (dedup=%v)", res.StatusCode, up.Deduplicated)
	}
	if !up.Persisted {
		t.Error("dedupe upload did not self-heal the store")
	}
	if !srv.store.has(up.Key) {
		t.Error("entry file missing after self-heal")
	}
}

// TestDedupeUploadCountsNoCacheLookup: the cache hit and miss counters
// count SpMV lookups only. A dedupe upload — answered from the resident
// entry, and on the heal path (entry file deleted) re-persisted from it —
// moves neither, nor does its last-access stamp.
func TestDedupeUploadCountsNoCacheLookup(t *testing.T) {
	dir := t.TempDir()
	srv := mustNew(t, storeCfg(dir))
	mustRecover(t, srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body := mmBytes(t, gen.Banded(70, 2, 1, 6))
	res, up := postUpload(t, ts, body)
	if res.StatusCode != http.StatusOK || !up.Persisted {
		t.Fatalf("upload: %d (persisted %v)", res.StatusCode, up.Persisted)
	}
	hits, misses := srv.cache.hitC.Value(), srv.cache.missC.Value()

	if res, up = postUpload(t, ts, body); res.StatusCode != http.StatusOK || !up.Deduplicated {
		t.Fatalf("dedupe upload: %d (dedup=%v)", res.StatusCode, up.Deduplicated)
	}
	if err := os.Remove(filepath.Join(dir, "entries", up.Key+storeEntrySuffix)); err != nil {
		t.Fatal(err)
	}
	if res, up = postUpload(t, ts, body); res.StatusCode != http.StatusOK || !up.Deduplicated || !up.Persisted {
		t.Fatalf("healing dedupe upload: %d (dedup=%v, persisted=%v)", res.StatusCode, up.Deduplicated, up.Persisted)
	}
	if h, m := srv.cache.hitC.Value(), srv.cache.missC.Value(); h != hits || m != misses {
		t.Errorf("dedupe uploads moved cache hits %d -> %d and misses %d -> %d, want both unchanged", hits, h, misses, m)
	}
}
