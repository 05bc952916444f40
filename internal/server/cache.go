// Package server implements the reordering-as-a-service daemon behind
// cmd/serve: an HTTP/JSON API that accepts Matrix Market uploads, reorders
// them with the predicted-best ordering, caches (matrix, ordering, plan)
// under a content-hash key, and answers SpMV requests against the cached
// plans — the amortization the paper's Table 5 motivates (reordering cost
// dominates one-shot use; reuse is the payoff).
//
// Robustness is the package's actual subject. Admission control is a
// bounded queue plus the byte-weighted memory governor from the study
// runner; saturation sheds load with 429/Retry-After instead of queueing
// unboundedly. Per-request deadlines propagate as context into the
// cancellable orderings. Failures classify through the study's
// error/timeout/canceled/panic/resource taxonomy and map onto HTTP status
// codes. /healthz and /readyz flip during overload and drain, and Drain
// stops intake, finishes in-flight work and leaves the process ready to
// exit under the study runner's exit-code contract.
package server

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"sparseorder/internal/admit"
	"sparseorder/internal/obs"
	"sparseorder/internal/reorder"
	"sparseorder/internal/sparse"
	"sparseorder/internal/spmv"
)

// entry is one cached (matrix, ordering, plan) triple. Entries are
// immutable after insertion except for the pin count and LRU position; the
// reordered matrix, permutation and 2D plan are shared read-only by every
// request on the entry.
type entry struct {
	key             string // content hash of the uploaded Matrix Market bytes
	alg             reorder.Algorithm
	mat             *sparse.CSR // reordered matrix
	perm            sparse.Perm // new-to-old; identity for Original
	plan            *spmv.Plan2D
	rows, cols, nnz int
	reorderSeconds  float64
	bytes           int64 // resident estimate the governor admitted

	// pins counts in-flight SpMV requests holding the entry; eviction
	// skips pinned entries, so a request can never observe a matrix whose
	// storage was released under it. Guarded by the cache mutex.
	pins int
	elem *list.Element // position in the LRU list; nil once evicted

	// stamped is the unix-nanosecond time of the entry file's last
	// access stamp (store.touch), the throttle of those stamps.
	stamped atomic.Int64
}

// newEntry builds the cache entry for the reordered matrix mat together
// with its 2D plan at threads threads, the plan every SpMV on the entry
// shares.
func newEntry(key string, alg reorder.Algorithm, mat *sparse.CSR, perm sparse.Perm, reorderSeconds float64, threads int) (*entry, error) {
	plan, err := spmv.NewPlan2D(mat, threads)
	if err != nil {
		return nil, err
	}
	return &entry{
		key: key, alg: alg, mat: mat, perm: perm, plan: plan,
		rows: mat.Rows, cols: mat.Cols, nnz: mat.NNZ(),
		reorderSeconds: reorderSeconds,
		bytes:          EntryBytes(mat.Rows, mat.NNZ()),
	}, nil
}

// EntryBytes is the resident working-set estimate of a cached entry: the
// reordered CSR plus the permutation (8 B per row). The plan's split-point
// arrays are O(threads) and ignored.
func EntryBytes(rows, nnz int) int64 {
	n, z := int64(rows), int64(nnz)
	if n < 0 || z < 0 {
		return 0
	}
	return 8*(n+1) + 12*z + 8*n
}

// ErrCacheFull reports that an insert could not be admitted even after
// evicting every unpinned entry — the budget is held by pinned entries or
// concurrent transient work. The request path treats it as saturation
// (shed, 429), not as a permanent refusal.
var ErrCacheFull = errors.New("server: plan cache full")

// Cache is the content-hash-keyed LRU of reordered matrices and SpMV
// plans. Its admission controller is the study runner's byte-weighted
// memory governor: every resident entry holds a governor admission for its
// estimated bytes, so cached plans, in-flight reorders and the rest of the
// process share one budget; eviction releases the admission. With a nil
// governor the cache is bounded by maxEntries alone.
type Cache struct {
	gov        *admit.Governor
	maxEntries int

	mu    sync.Mutex
	lru   *list.List // front = most recently used
	byKey map[string]*entry
	adms  map[string]*admit.Admission // admission per resident entry
	bytes int64

	hitC, missC, evictC, insertC *obs.Counter
	bytesG, entriesG             *obs.Gauge
}

// NewCache builds the cache. gov may be nil (no byte budget); maxEntries
// <= 0 defaults to 256. Metric handles are resolved once so the request
// path never touches the registry.
func NewCache(gov *admit.Governor, maxEntries int, o *obs.Obs) *Cache {
	if maxEntries <= 0 {
		maxEntries = 256
	}
	c := &Cache{
		gov:        gov,
		maxEntries: maxEntries,
		lru:        list.New(),
		byKey:      map[string]*entry{},
		adms:       map[string]*admit.Admission{},
	}
	if o != nil && o.Metrics != nil {
		r := o.Metrics
		c.hitC = r.Counter("sparseorder_server_cache_hits_total",
			"SpMV requests that found a cached plan for their key")
		c.missC = r.Counter("sparseorder_server_cache_misses_total",
			"SpMV requests that found no cached plan for their key")
		c.evictC = r.Counter("sparseorder_server_cache_evictions_total",
			"cache entries evicted to admit new ones")
		c.insertC = r.Counter("sparseorder_server_cache_inserts_total",
			"cache entries inserted")
		c.bytesG = r.Gauge("sparseorder_server_cache_bytes",
			"estimated resident bytes of cached entries")
		c.entriesG = r.Gauge("sparseorder_server_cache_entries",
			"cached entries resident")
	}
	return c
}

func (c *Cache) setGauges() { // c.mu held
	if c.bytesG != nil {
		c.bytesG.Set(float64(c.bytes))
	}
	if c.entriesG != nil {
		c.entriesG.Set(float64(c.lru.Len()))
	}
}

// Get is the SpMV lookup: it returns the entry for key pinned against
// eviction and moved to the LRU front, or nil, counting a hit or a miss.
// The caller must Unpin exactly once when done serving from it.
func (c *Cache) Get(key string) *entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.byKey[key]
	if e == nil {
		if c.missC != nil {
			c.missC.Inc()
		}
		return nil
	}
	e.pins++
	c.lru.MoveToFront(e.elem)
	if c.hitC != nil {
		c.hitC.Inc()
	}
	return e
}

// pin returns the entry for key pinned against eviction, or nil, without
// moving it in the LRU order or counting a hit or a miss: the upload
// dedupe path, which answers from the entry but is no SpMV lookup. The
// caller must Unpin a non-nil result exactly once.
func (c *Cache) pin(key string) *entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.byKey[key]
	if e != nil {
		e.pins++
	}
	return e
}

// Meta is the externally visible description of a cached entry.
type Meta struct {
	Key            string  `json:"key"`
	Rows           int     `json:"rows"`
	Cols           int     `json:"cols"`
	NNZ            int     `json:"nnz"`
	Ordering       string  `json:"ordering"`
	Bytes          int64   `json:"bytes"`
	ReorderSeconds float64 `json:"reorder_seconds"`
	Pins           int     `json:"pins"`
}

// Peek returns a cached entry's metadata without pinning it, moving it in
// the LRU order, or counting a hit/miss — the probe behind GET
// /matrices/{key}.
func (c *Cache) Peek(key string) (Meta, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.byKey[key]
	if e == nil {
		return Meta{}, false
	}
	return Meta{
		Key: e.key, Rows: e.rows, Cols: e.cols, NNZ: e.nnz,
		Ordering: string(e.alg), Bytes: e.bytes,
		ReorderSeconds: e.reorderSeconds, Pins: e.pins,
	}, true
}

// Unpin releases a Get. Entries are never reclaimed while pinned, so the
// matrix and plan a request is using stay valid until this call.
func (c *Cache) Unpin(e *entry) {
	if e == nil {
		return
	}
	c.mu.Lock()
	e.pins--
	if e.pins < 0 {
		c.mu.Unlock()
		panic("server: cache entry unpinned more often than pinned")
	}
	c.mu.Unlock()
}

// Insert makes e resident, evicting least-recently-used unpinned entries
// until the governor admits its bytes (and the entry count fits). It
// returns admit.ErrResourceBudget when the entry alone exceeds the
// budget (permanent: the matrix is servable but never cacheable) and
// ErrCacheFull when eviction cannot free enough (transient saturation).
// Inserting a key that is already resident is a no-op keeping the existing
// entry, so concurrent uploads of the same matrix cannot tear state.
func (c *Cache) Insert(e *entry) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.byKey[e.key] != nil {
		return nil
	}
	for {
		// Entry-count bound first (it also bounds the nil-governor path).
		if c.lru.Len() >= c.maxEntries {
			if !c.evictOldestUnpinned() {
				return fmt.Errorf("%w: %d entries resident, all pinned", ErrCacheFull, c.lru.Len())
			}
			continue
		}
		adm, err := c.gov.TryAcquire("cache:"+e.key, e.bytes)
		if err == nil {
			if adm != nil {
				c.adms[e.key] = adm
			}
			break
		}
		if errors.Is(err, admit.ErrResourceBudget) {
			return err // can never fit; don't evict the world trying
		}
		if !c.evictOldestUnpinned() {
			return fmt.Errorf("%w: %v", ErrCacheFull, err)
		}
	}
	e.elem = c.lru.PushFront(e)
	c.byKey[e.key] = e
	c.bytes += e.bytes
	if c.insertC != nil {
		c.insertC.Inc()
	}
	c.setGauges()
	return nil
}

// insertRecovered makes a store-recovered entry resident using the
// governor admission the recovery pass already acquired for it, without
// evicting anything: recovery admits byte-weighted in LRU order up front,
// so an entry that doesn't fit is skipped there, never forced in here.
// Callers insert oldest-first, so PushFront leaves the LRU list in true
// recency order. It reports whether the key is resident afterwards — true
// also when a live upload won the race and inserted the key first (the
// pre-acquired admission is released; the resident entry serves).
func (c *Cache) insertRecovered(e *entry, adm *admit.Admission) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.byKey[e.key] != nil {
		if adm != nil {
			adm.Release()
		}
		return true
	}
	if c.lru.Len() >= c.maxEntries {
		if adm != nil {
			adm.Release()
		}
		return false
	}
	if adm != nil {
		c.adms[e.key] = adm
	}
	e.elem = c.lru.PushFront(e)
	c.byKey[e.key] = e
	c.bytes += e.bytes
	if c.insertC != nil {
		c.insertC.Inc()
	}
	c.setGauges()
	return true
}

// evictOldestUnpinned drops the least-recently-used entry whose pin count
// is zero, releasing its governor admission. It reports whether anything
// was evicted. c.mu held.
func (c *Cache) evictOldestUnpinned() bool {
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*entry)
		if e.pins > 0 {
			continue
		}
		c.lru.Remove(el)
		e.elem = nil
		delete(c.byKey, e.key)
		c.bytes -= e.bytes
		if adm := c.adms[e.key]; adm != nil {
			adm.Release()
			delete(c.adms, e.key)
		}
		if c.evictC != nil {
			c.evictC.Inc()
		}
		c.setGauges()
		return true
	}
	return false
}

// Len returns the resident entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Bytes returns the resident byte estimate.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
