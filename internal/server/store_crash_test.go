package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"sparseorder/internal/faultinject"
	"sparseorder/internal/gen"
	"sparseorder/internal/sparse"
)

// TestStoreCrashRestartChaos is the PR's acceptance scenario: for every
// injected store fault point, a daemon populates the store while the
// fault fires, is then abandoned kill -9 style — no drain, no close, no
// cleanup, exactly the state a SIGKILL mid-upload or mid-store-write
// leaves on disk (torn temp files, missing entries, silently corrupted
// payloads) — and a fresh daemon restarts onto the same directory.
// After recovery:
//
//   - every recovered key serves a byte-identical SpMV response to a
//     never-restarted, never-faulted reference daemon;
//   - every unrecovered key 404s cleanly, and a re-upload then serves the
//     exact reference answer (degradation is a cache miss, never a wrong
//     answer or a crashed boot);
//   - corrupt entries sit in quarantine/ with a reason, never in the
//     serving path;
//   - the recovery books reconcile: recovered + quarantined + skipped =
//     entries scanned on disk, and the store metrics agree;
//   - the cache holds no leaked pins and no goroutines leak.
//
// Fault decisions hash (seed, point, key), so each scenario's damage
// pattern is deterministic.
func TestStoreCrashRestartChaos(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srcs := []*sparse.CSR{
		gen.Banded(80, 3, 1, 1),
		gen.Grid2D(9, 9),
		gen.RMAT(6, 4, 3),
		gen.Banded(64, 2, 0.8, 4),
		gen.Grid2D(8, 11),
	}
	threads := 2

	// Ground truth from a never-restarted, fault-free daemon.
	type target struct {
		body []byte
		key  string
		x    []float64
		want []byte
	}
	refCfg := Config{Threads: threads, Obs: newTestObs()}
	ref := mustNew(t, refCfg)
	rts := httptest.NewServer(ref.Handler())
	targets := make([]target, len(srcs))
	for i, a := range srcs {
		body := mmBytes(t, a)
		res, up := postUpload(t, rts, body)
		if res.StatusCode != http.StatusOK {
			t.Fatalf("reference upload %d: %d", i, res.StatusCode)
		}
		x := testVector(a.Cols, int64(i))
		sres, raw := postSpMV(t, rts, up.Key, x)
		if sres.StatusCode != http.StatusOK {
			t.Fatalf("reference spmv %d: %d %s", i, sres.StatusCode, raw)
		}
		targets[i] = target{body: body, key: up.Key, x: x, want: raw}
	}
	rts.Close()

	scenarios := []struct {
		name string
		// writeRules fire while the first daemon populates the store.
		writeRules []faultinject.Rule
		// readRules fire during the restarted daemon's recovery.
		readRules []faultinject.Rule
	}{
		{name: "store-write-error", writeRules: []faultinject.Rule{
			{Point: faultinject.StoreWrite, Mode: faultinject.ModeENOSPC, Rate: 0.5}}},
		{name: "store-fsync-error", writeRules: []faultinject.Rule{
			{Point: faultinject.StoreSync, Mode: faultinject.ModeError, Rate: 0.5}}},
		{name: "store-silent-corruption", writeRules: []faultinject.Rule{
			{Point: faultinject.StoreCorrupt, Mode: faultinject.ModeError, Rate: 0.5}}},
		{name: "store-read-error-on-recovery", readRules: []faultinject.Rule{
			{Point: faultinject.StoreRead, Mode: faultinject.ModeError, Rate: 0.5}}},
		{name: "atomic-write-torn", writeRules: []faultinject.Rule{
			{Point: faultinject.FileWrite, Mode: faultinject.ModeShortWrite, Rate: 0.5}}},
		{name: "dirsync-lost", writeRules: []faultinject.Rule{
			{Point: faultinject.FileDirSync, Mode: faultinject.ModeENOSPC, Rate: 1}}},
		{name: "everything-at-once", writeRules: []faultinject.Rule{
			{Point: faultinject.StoreWrite, Mode: faultinject.ModeENOSPC, Rate: 0.4},
			{Point: faultinject.StoreSync, Mode: faultinject.ModeError, Rate: 0.4},
			{Point: faultinject.StoreCorrupt, Mode: faultinject.ModeError, Rate: 0.4},
			{Point: faultinject.FileWrite, Mode: faultinject.ModeShortWrite, Rate: 0.4},
		}},
	}

	for si, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			defer faultinject.Activate(nil) // never leak a plan into the next subtest
			dir := t.TempDir()
			cfg := Config{Threads: threads, StoreDir: dir, Obs: newTestObs()}

			// Populate under fire. The daemon is then abandoned without
			// drain or close — the in-process stand-in for kill -9.
			victim := mustNew(t, cfg)
			if _, err := victim.Recover(context.Background()); err != nil {
				t.Fatal(err)
			}
			if len(sc.writeRules) > 0 {
				faultinject.Activate(faultinject.NewPlan(int64(100+si), sc.writeRules...))
			}
			vts := httptest.NewServer(victim.Handler())
			persisted := map[string]bool{}
			for i, tg := range targets {
				res, up := postUpload(t, vts, tg.body)
				if res.StatusCode != http.StatusOK {
					t.Fatalf("victim upload %d: %d", i, res.StatusCode)
				}
				persisted[tg.key] = up.Persisted
			}
			vts.Close()
			requireFired(t, sc.writeRules)
			faultinject.Activate(nil)
			// No drain: its state is whatever hit the disk.

			onDisk := len(entryFiles(t, dir))

			if len(sc.readRules) > 0 {
				faultinject.Activate(faultinject.NewPlan(int64(200+si), sc.readRules...))
			}
			srv := mustNew(t, cfg)
			st := mustRecover(t, srv)
			requireFired(t, sc.readRules)
			faultinject.Activate(nil)

			if st.Scanned != onDisk {
				t.Errorf("scanned %d entries, %d were on disk", st.Scanned, onDisk)
			}
			recC, quarReasons := storeMetricSnapshot(srv)
			if int(recC) != st.Recovered {
				t.Errorf("recovered_total metric %d, stats say %d", recC, st.Recovered)
			}
			if quarReasons != st.Quarantined {
				t.Errorf("quarantined_total metrics sum to %d, stats say %d", quarReasons, st.Quarantined)
			}

			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			recovered := 0
			for i, tg := range targets {
				res, raw := postSpMV(t, ts, tg.key, tg.x)
				switch res.StatusCode {
				case http.StatusOK:
					recovered++
					if !bytes.Equal(raw, tg.want) {
						t.Errorf("spmv %d after restart differs from the reference daemon", i)
					}
				case http.StatusNotFound:
					// Unrecoverable: degrade to the cold path, then serve
					// the exact reference answer.
					if res2, _ := postUpload(t, ts, tg.body); res2.StatusCode != http.StatusOK {
						t.Fatalf("re-upload %d: %d", i, res2.StatusCode)
					}
					res3, raw3 := postSpMV(t, ts, tg.key, tg.x)
					if res3.StatusCode != http.StatusOK || !bytes.Equal(raw3, tg.want) {
						t.Errorf("spmv %d after re-upload: %d, bytes match %v",
							i, res3.StatusCode, bytes.Equal(raw3, tg.want))
					}
				default:
					t.Errorf("spmv %d after restart: unexpected status %d %s", i, res.StatusCode, raw)
				}
			}
			if recovered != st.Recovered {
				t.Errorf("%d keys served from recovery, stats claim %d", recovered, st.Recovered)
			}
			// Every entry the victim reported as durably persisted — put()
			// returned success, no injected corruption — must have survived.
			if sc.name != "store-silent-corruption" && sc.name != "everything-at-once" && len(sc.readRules) == 0 {
				for i, tg := range targets {
					if persisted[tg.key] && !srv.cache.Contains(tg.key) {
						t.Errorf("key %d reported persisted but did not recover", i)
					}
				}
			}
			checkInvariants(t, srv.cache, true)
		})
	}
	waitGoroutines(t, baseline)
}

// requireFired fails the test if the armed faults missed everything — a
// scenario whose faults never fire proves nothing. Single-point scenarios
// must fire their point; the mixed scenario must fire at least two
// distinct points (earlier points can shadow later ones on the same key,
// so all-four is not guaranteed with a small corpus). Must be called
// before the plan is deactivated.
func requireFired(t *testing.T, rules []faultinject.Rule) {
	t.Helper()
	if len(rules) == 0 {
		return
	}
	fired := faultinject.Fired()
	if len(rules) == 1 {
		if fired[rules[0].Point] == 0 {
			t.Fatalf("fault %v armed but never fired; scenario is vacuous", rules[0].Point)
		}
		return
	}
	distinct := 0
	for _, r := range rules {
		if fired[r.Point] > 0 {
			distinct++
		}
	}
	if distinct < 2 {
		t.Fatalf("mixed-fault scenario fired %d distinct points, want >= 2", distinct)
	}
}

// storeMetricSnapshot reads the recovered counter and the sum of the
// per-reason quarantined counters from the daemon's registry.
func storeMetricSnapshot(s *Server) (recovered uint64, quarantined int) {
	recovered = s.store.recoveredC.Value()
	for _, reason := range []string{
		quarTruncated, quarHeader, quarStaleVersion, quarConfigMismatch,
		quarKeyMismatch, quarChecksum, quarInvalid, quarUnreadable,
	} {
		quarantined += int(s.store.quarantinedCounter(reason).Value())
	}
	return recovered, quarantined
}

// TestStoreCrashTempDebrisSwept covers the other kill -9 artifact: a temp
// file left by an atomic write the crash interrupted is swept when the
// store reopens and never mistaken for an entry.
func TestStoreCrashTempDebrisSwept(t *testing.T) {
	dir := t.TempDir()
	srvA := mustNew(t, storeCfg(dir))
	mustRecover(t, srvA)
	tsA := httptest.NewServer(srvA.Handler())
	res, up := postUpload(t, tsA, mmBytes(t, gen.Banded(60, 2, 1, 1)))
	if res.StatusCode != http.StatusOK {
		t.Fatalf("upload: %d", res.StatusCode)
	}
	tsA.Close()

	// Plant the debris a SIGKILL mid-CreateTemp/Write leaves behind.
	debris := filepath.Join(dir, "entries", "."+up.Key+storeEntrySuffix+".tmp-123456")
	if err := os.WriteFile(debris, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}

	srvB := mustNew(t, storeCfg(dir))
	st := mustRecover(t, srvB)
	if st.Scanned != 1 || st.Recovered != 1 {
		t.Fatalf("recovery = %+v, want exactly the one real entry", st)
	}
	if _, err := os.Stat(debris); !os.IsNotExist(err) {
		t.Errorf("temp debris survived store reopen: %v", err)
	}
}
