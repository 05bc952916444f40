package server

import (
	"context"
	"sort"
	"time"

	"sparseorder/internal/admit"
	"sparseorder/internal/par"
)

// RecoveryStats summarises one warm-restart recovery pass. The counts
// reconcile by construction: every entry file on disk at scan time is
// exactly one of recovered (resident in the plan cache), quarantined
// (moved to quarantine/ with a classified reason), or skipped (valid but
// left on disk unloaded because the memory governor or entry bound was
// full, or the pass was interrupted).
type RecoveryStats struct {
	Scanned     int
	Recovered   int
	Quarantined int
	Skipped     int
	Seconds     float64
}

// Recover rebuilds the plan cache from the durable store and then flips
// /readyz out of the recovering state. It is called once after New, runs
// concurrently with serving (a request racing recovery sees at worst a
// cache miss; inserts dedupe by key), and never fails the boot: corrupt,
// truncated and stale entries are quarantined, over-budget entries are
// skipped, and only an unreadable store directory or a canceled context
// returns an error — with the daemon still serving cold either way.
//
// The pass runs in three stages. First a serial header scan classifies
// every entry and quarantines the unrecoverable ones. Then survivors are
// admitted against the memory governor byte-weighted in LRU order — most
// recently used first, per the persisted last-access stamps with the
// header save time as fallback — so when the budget fills, what falls
// out is exactly what LRU eviction would have dropped. Finally the
// admitted payloads are read, checksummed and validated in parallel
// (bounded by RecoverWorkers) and inserted oldest-first, leaving the
// cache's LRU list in true recency order.
func (s *Server) Recover(ctx context.Context) (RecoveryStats, error) {
	var st RecoveryStats
	if s.store == nil {
		return st, nil
	}
	defer s.recovering.Store(false)
	t0 := time.Now()
	defer func() {
		st.Seconds = time.Since(t0).Seconds()
		if s.store.recoverySecG != nil {
			s.store.recoverySecG.Set(st.Seconds)
		}
		if s.store.recoveredC != nil {
			s.store.recoveredC.Add(uint64(st.Recovered))
		}
		if s.store.skippedC != nil {
			s.store.skippedC.Add(uint64(st.Skipped))
		}
		s.store.logf("store: recovery done in %.3fs: %d scanned, %d recovered, %d quarantined, %d skipped",
			st.Seconds, st.Scanned, st.Recovered, st.Quarantined, st.Skipped)
	}()

	paths, err := s.store.listEntries()
	if err != nil {
		return st, err
	}
	st.Scanned = len(paths)
	s.recoverRemaining.Store(int64(len(paths)))
	stamps := s.store.readAccessStamps()

	// Stage 1: serial header scan. Headers are one short read per file;
	// parallelism only pays for the payload stage.
	var cands []storeCandidate
	var liveBytes int64
	for _, p := range paths {
		if err := ctx.Err(); err != nil {
			st.Skipped = st.Scanned - st.Quarantined
			return st, err
		}
		c, reason, detail := s.store.scanEntry(p)
		if reason != "" {
			s.store.quarantine(p, reason, detail)
			st.Quarantined++
			s.recoverRemaining.Add(-1)
			continue
		}
		if t := stamps[c.key]; t > c.stamp {
			c.stamp = t
		}
		cands = append(cands, c)
		liveBytes += c.size
	}
	// Seed the on-disk gauges with what survived the scan; concurrent
	// uploads keep adjusting them incrementally from here.
	s.store.bytes.Add(liveBytes)
	s.store.entries.Add(int64(len(cands)))
	s.store.setGauges()

	// Stage 2: byte-weighted admission in LRU order (ties broken by key
	// for determinism). Each refusal is independent — a matrix too big
	// for the remaining budget does not block smaller, older ones.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].stamp != cands[j].stamp {
			return cands[i].stamp > cands[j].stamp
		}
		return cands[i].key < cands[j].key
	})
	type admitted struct {
		cand storeCandidate
		adm  *admit.Admission
	}
	var granted []admitted
	keepStamps := map[string]int64{} // access stamps surviving compaction
	var keepKeys []string
	for _, c := range cands {
		if ctx.Err() != nil || len(granted) >= s.cfg.CacheEntries {
			st.Skipped++
			s.recoverRemaining.Add(-1)
			keepStamps[c.key], keepKeys = c.stamp, append(keepKeys, c.key)
			continue
		}
		adm, err := s.gov.TryAcquire("recover:"+c.key, EntryBytes(c.header.Rows, c.header.NNZ))
		if err != nil {
			s.store.logf("store: leaving %.12s on disk unloaded: %v", c.key, err)
			st.Skipped++
			s.recoverRemaining.Add(-1)
			keepStamps[c.key], keepKeys = c.stamp, append(keepKeys, c.key)
			continue
		}
		granted = append(granted, admitted{c, adm})
	}
	if err := ctx.Err(); err != nil {
		for _, a := range granted {
			if a.adm != nil {
				a.adm.Release()
			}
		}
		st.Skipped += len(granted)
		return st, err
	}

	// Stage 3: parallel load + verify, bounded by the par pool.
	type loaded struct {
		e              *entry
		reason, detail string
	}
	res := make([]loaded, len(granted))
	par.Ranges(len(granted), par.Resolve(s.cfg.RecoverWorkers), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			if ctx.Err() != nil {
				s.recoverRemaining.Add(-1)
				continue // e nil, reason empty: counted skipped below
			}
			e, reason, detail := s.store.loadEntry(granted[i].cand)
			res[i] = loaded{e, reason, detail}
			s.recoverRemaining.Add(-1)
		}
	})

	// Insert oldest-first so PushFront leaves the most recently used
	// entry at the LRU front — the order eviction needs.
	for i := len(granted) - 1; i >= 0; i-- {
		a, r := granted[i], res[i]
		if r.e == nil {
			if a.adm != nil {
				a.adm.Release()
			}
			if r.reason == "" { // canceled before its load started
				st.Skipped++
				keepStamps[a.cand.key], keepKeys = a.cand.stamp, append(keepKeys, a.cand.key)
				continue
			}
			s.store.quarantine(a.cand.path, r.reason, r.detail)
			s.store.bytes.Add(-a.cand.size)
			s.store.entries.Add(-1)
			s.store.setGauges()
			st.Quarantined++
			continue
		}
		if s.cache.insertRecovered(r.e, a.adm) {
			st.Recovered++
		} else {
			st.Skipped++
		}
		keepStamps[a.cand.key], keepKeys = a.cand.stamp, append(keepKeys, a.cand.key)
	}
	s.store.compactAccess(keepStamps, keepKeys)
	return st, ctx.Err()
}
