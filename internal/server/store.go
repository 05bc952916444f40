package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"sparseorder/internal/faultinject"
	"sparseorder/internal/fsutil"
	"sparseorder/internal/obs"
	"sparseorder/internal/reorder"
	"sparseorder/internal/sparse"
)

// storeVersion is bumped whenever the entry layout changes; a version
// mismatch quarantines the entry as stale rather than misreading it.
const storeVersion = 1

// storeEntrySuffix is the filename suffix of persisted entries; anything
// else in the entries directory (temp debris, stray files) is not an
// entry and is never loaded.
const storeEntrySuffix = ".entry"

// Quarantine reason classification. Every entry that cannot be recovered
// is moved to quarantine/ with exactly one of these reasons, so an
// operator can tell a crashed write (truncated) from bit rot (checksum)
// from a config change (stale-version, config-mismatch) at a glance.
const (
	quarTruncated      = "truncated"       // file shorter than the header declares
	quarHeader         = "header"          // header line unparsable or not an entry header
	quarStaleVersion   = "stale-version"   // written by a different entry-format version
	quarConfigMismatch = "config-mismatch" // written under a different seed/threads binding
	quarKeyMismatch    = "key-mismatch"    // header key disagrees with the filename
	quarChecksum       = "checksum"        // payload SHA-256 does not match the header
	quarInvalid        = "invalid"         // payload decodes to an invalid CSR or perm
	quarUnreadable     = "unreadable"      // the file could not be read at all
)

// storeHeader is the first line of every entry file: a JSON object binding
// the payload to its identity (content-hash key), its shape, the exact
// daemon configuration whose ordering decisions it captures (seed and
// SpMV thread count — the inputs of Predict and the partitioners), and
// the payload checksum. ReorderWorkers deliberately does NOT bind: the
// parallel-reordering determinism contract makes plans byte-identical at
// any worker count.
type storeHeader struct {
	Kind           string  `json:"kind"`
	Version        int     `json:"version"`
	Key            string  `json:"key"`
	Algorithm      string  `json:"algorithm"`
	Rows           int     `json:"rows"`
	Cols           int     `json:"cols"`
	NNZ            int     `json:"nnz"`
	Seed           int64   `json:"seed"`
	Threads        int     `json:"threads"`
	ReorderSeconds float64 `json:"reorder_seconds"`
	SavedUnixNano  int64   `json:"saved_unix_nano"`
	PayloadBytes   int64   `json:"payload_bytes"`
	PayloadSHA256  string  `json:"payload_sha256"`
}

// storeHeaderKind is the Kind value of a well-formed entry header.
const storeHeaderKind = "sparseorder-store-entry"

// payloadLen is the exact byte length of an entry payload for a matrix
// shape: RowPtr as int64 (rows+1), ColIdx as int32 (nnz), Val as float64
// (nnz), then the new-to-old perm as int64 (rows). It coincides with
// EntryBytes, so the governor admission for a recovered entry equals its
// on-disk payload size.
func payloadLen(rows, nnz int) int64 {
	return 8*int64(rows+1) + 12*int64(nnz) + 8*int64(rows)
}

// storeStampInterval is the least time between two last-access stamps of
// one entry: a hot entry costs at most one Chtimes a second.
const storeStampInterval = time.Second

// store is the durable content-addressed plan store behind -store: every
// admitted upload is persisted as one checksummed, versioned entry file
// written atomically (fsutil.WriteFileAtomic, parent directory fsynced),
// keyed by the upload's SHA-256 content hash. The layout under the root:
//
//	entries/<key>.entry      one file per persisted (matrix, ordering, perm)
//	quarantine/<name>        entries recovery rejected, plus <name>.reason
//
// Entry files are immutable once written (atomic replace on re-upload),
// so a crash at any instant leaves each entry either absent, previous, or
// complete — never torn. An entry file's mtime is its last-access stamp:
// the write sets it, and touch moves it forward on use. The stamp only
// orders recovery, so it is never synced; a crash loses at most LRU
// fidelity. An access.log left by an older daemon is neither read nor
// removed. A copy of the store that does not preserve mtimes (cp without
// -p) stamps every entry with its copy time, and recovery then follows
// the copy's order; cp -p, rsync -t or tar keep the LRU order.
//
// A nil *store no-ops every method, so the storeless daemon pays only a
// nil check per call site.
type store struct {
	entriesDir string
	quarDir    string
	seed       int64
	threads    int
	logf       func(format string, args ...any)

	bytes   atomic.Int64 // on-disk entry bytes (headers + payloads)
	entries atomic.Int64 // entry files on disk

	reg          *obs.Registry // for lazily-labelled quarantine counters
	writesC      *obs.Counter  // sparseorder_server_store_writes_total
	writeErrC    *obs.Counter  // sparseorder_server_store_write_errors_total
	recoveredC   *obs.Counter  // sparseorder_server_store_recovered_total
	skippedC     *obs.Counter  // sparseorder_server_store_skipped_total
	bytesG       *obs.Gauge    // sparseorder_server_store_bytes
	entriesG     *obs.Gauge    // sparseorder_server_store_entries
	recoverySecG *obs.Gauge    // sparseorder_server_store_recovery_seconds
}

// openStore creates or reopens the store rooted at dir. Temp debris from
// writes a crash interrupted (".<name>.tmp-*" files) is removed — the
// atomic-write contract makes such files meaningless by construction.
func openStore(dir string, seed int64, threads int, o *obs.Obs, logf func(string, ...any)) (*store, error) {
	s := &store{
		entriesDir: filepath.Join(dir, "entries"),
		quarDir:    filepath.Join(dir, "quarantine"),
		seed:       seed,
		threads:    threads,
		logf:       logf,
	}
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	for _, d := range []string{s.entriesDir, s.quarDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("server: store: %w", err)
		}
	}
	// Sweep temp debris left by a crash mid-atomic-write.
	if ents, err := os.ReadDir(s.entriesDir); err == nil {
		for _, de := range ents {
			if name := de.Name(); strings.HasPrefix(name, ".") && strings.Contains(name, ".tmp-") {
				os.Remove(filepath.Join(s.entriesDir, name))
			}
		}
	}
	if o != nil && o.Metrics != nil {
		r := o.Metrics
		s.reg = r
		s.writesC = r.Counter("sparseorder_server_store_writes_total",
			"entries persisted to the plan store")
		s.writeErrC = r.Counter("sparseorder_server_store_write_errors_total",
			"plan store writes that failed; the upload still served, durability degraded")
		s.recoveredC = r.Counter("sparseorder_server_store_recovered_total",
			"store entries rebuilt into the plan cache during warm-restart recovery")
		s.skippedC = r.Counter("sparseorder_server_store_skipped_total",
			"store entries left on disk unloaded because the memory governor or entry bound was full")
		s.bytesG = r.Gauge("sparseorder_server_store_bytes",
			"bytes of persisted entries on disk")
		s.entriesG = r.Gauge("sparseorder_server_store_entries",
			"entry files on disk")
		s.recoverySecG = r.Gauge("sparseorder_server_store_recovery_seconds",
			"wall time of the last warm-restart recovery")
	}
	return s, nil
}

// quarantinedCounter resolves the per-reason quarantine counter; the
// quarantine path is cold, so a registry lookup per call is fine.
func (s *store) quarantinedCounter(reason string) *obs.Counter {
	if s.reg == nil {
		return nil
	}
	return s.reg.Counter("sparseorder_server_store_quarantined_total",
		"store entries moved to quarantine/ during recovery, by classified reason",
		obs.Label{Key: "reason", Value: reason})
}

func (s *store) entryPath(key string) string {
	return filepath.Join(s.entriesDir, key+storeEntrySuffix)
}

// has reports whether an entry file exists for key. It proves presence,
// not validity — validity is recovery's job.
func (s *store) has(key string) bool {
	if s == nil {
		return false
	}
	_, err := os.Stat(s.entryPath(key))
	return err == nil
}

// encodeEntry serialises an entry: the JSON header line, then the binary
// little-endian payload (RowPtr int64, ColIdx int32, Val float64, Perm
// int64). Values round-trip through their exact bit patterns, so a
// recovered entry serves byte-identical SpMV responses.
func (s *store) encodeEntry(e *entry, now int64) []byte {
	payload := make([]byte, payloadLen(e.rows, e.nnz))
	off := 0
	for _, v := range e.mat.RowPtr {
		binary.LittleEndian.PutUint64(payload[off:], uint64(v))
		off += 8
	}
	for _, v := range e.mat.ColIdx {
		binary.LittleEndian.PutUint32(payload[off:], uint32(v))
		off += 4
	}
	for _, v := range e.mat.Val {
		// Exact IEEE-754 bit pattern: recovered values are byte-identical.
		binary.LittleEndian.PutUint64(payload[off:], math.Float64bits(v))
		off += 8
	}
	for _, v := range e.perm {
		binary.LittleEndian.PutUint64(payload[off:], uint64(v))
		off += 8
	}
	sum := sha256.Sum256(payload)
	h := storeHeader{
		Kind:           storeHeaderKind,
		Version:        storeVersion,
		Key:            e.key,
		Algorithm:      string(e.alg),
		Rows:           e.rows,
		Cols:           e.cols,
		NNZ:            e.nnz,
		Seed:           s.seed,
		Threads:        s.threads,
		ReorderSeconds: e.reorderSeconds,
		SavedUnixNano:  now,
		PayloadBytes:   int64(len(payload)),
		PayloadSHA256:  hex.EncodeToString(sum[:]),
	}
	hb, err := json.Marshal(h)
	if err != nil {
		// The header is a struct of scalars; Marshal cannot fail on it.
		panic(err)
	}
	return append(append(hb, '\n'), payload...)
}

// put persists an entry durably under its content-hash key, replacing any
// previous file atomically. A failure leaves either the previous entry or
// none — never a torn file — and is reported so the caller can log and
// count it; serving continues either way (durability degrades to the cold
// path on the next restart, never to a wrong answer).
//
// Fault points: store/write fires before anything is serialised;
// store/fsync fires after the atomic write completed, modelling a
// durability barrier whose failure leaves a complete entry of unknown
// persistence; store/corrupt fires after a successful write and flips one
// payload byte on disk — the silent-corruption case the recovery checksum
// exists for.
func (s *store) put(e *entry) error {
	if s == nil {
		return nil
	}
	if err := faultinject.Check(faultinject.StoreWrite, e.key); err != nil {
		if s.writeErrC != nil {
			s.writeErrC.Inc()
		}
		return err
	}
	path := s.entryPath(e.key)
	var prevSize int64
	prev := false
	if fi, err := os.Stat(path); err == nil {
		prevSize, prev = fi.Size(), true
	}
	data := s.encodeEntry(e, time.Now().UnixNano())
	if err := fsutil.WriteFileAtomic(path, data, 0o644); err != nil {
		if s.writeErrC != nil {
			s.writeErrC.Inc()
		}
		return err
	}
	if err := faultinject.Check(faultinject.StoreSync, e.key); err != nil {
		// The entry is on disk in full; only its durability is in doubt.
		// Report the failure so the daemon does not claim a persisted plan.
		if s.writeErrC != nil {
			s.writeErrC.Inc()
		}
		return err
	}
	s.bytes.Add(int64(len(data)) - prevSize)
	if !prev {
		s.entries.Add(1)
	}
	s.setGauges()
	if s.writesC != nil {
		s.writesC.Inc()
	}
	if err := faultinject.Check(faultinject.StoreCorrupt, e.key); err != nil {
		// Deterministically corrupt the just-written entry: flip one byte
		// in the middle of the payload. The daemon does NOT see an error —
		// this is silent bit rot, discovered only by the recovery checksum.
		s.flipPayloadByte(path, data)
	}
	return nil
}

// flipPayloadByte simulates silent media corruption of a written entry.
func (s *store) flipPayloadByte(path string, data []byte) {
	headerLen := bytes.IndexByte(data, '\n') + 1
	off := int64(headerLen) + int64(len(data)-headerLen)/2
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		return
	}
	b[0] ^= 0xff
	f.WriteAt(b[:], off)
	f.Sync()
}

func (s *store) setGauges() {
	if s.bytesG != nil {
		s.bytesG.Set(float64(s.bytes.Load()))
	}
	if s.entriesG != nil {
		s.entriesG.Set(float64(s.entries.Load()))
	}
}

// touch stamps e's entry file with the current time as its last access,
// at most once per storeStampInterval per entry. Best effort by design:
// no fsync, errors only logged — a lost stamp costs LRU fidelity on the
// next restart, nothing else. A missing file (its persist failed) is the
// durability loss already logged at write time, so it logs nothing here.
func (s *store) touch(e *entry) {
	if s == nil {
		return
	}
	now := time.Now()
	last := e.stamped.Load()
	if now.UnixNano()-last < int64(storeStampInterval) || !e.stamped.CompareAndSwap(last, now.UnixNano()) {
		return
	}
	if err := os.Chtimes(s.entryPath(e.key), now, now); err != nil && !errors.Is(err, fs.ErrNotExist) {
		s.logf("store: access stamp for %.12s: %v", e.key, err)
	}
}

// quarantine moves an entry file out of the recovery set into
// quarantine/, alongside a <name>.reason file recording the classified
// reason and detail. Quarantine never fails the boot: if even the rename
// fails, the file is left behind and recovery carries on — it will be
// re-classified on the next restart.
func (s *store) quarantine(path, reason, detail string) {
	base := filepath.Base(path)
	dst := filepath.Join(s.quarDir, base)
	if err := os.Rename(path, dst); err != nil {
		s.logf("store: quarantine %s (%s): %v", base, reason, err)
		return
	}
	fsutil.SyncDir(s.entriesDir)
	doc, err := json.Marshal(struct {
		Reason string `json:"reason"`
		Detail string `json:"detail"`
		T      int64  `json:"quarantined_unix_nano"`
	}{reason, detail, time.Now().UnixNano()})
	if err == nil {
		if werr := fsutil.WriteFileAtomic(dst+".reason", append(doc, '\n'), 0o644); werr != nil {
			s.logf("store: quarantine reason for %s: %v", base, werr)
		}
	}
	if c := s.quarantinedCounter(reason); c != nil {
		c.Inc()
	}
	s.logf("store: quarantined %s: %s (%s)", base, reason, detail)
}

// storeCandidate is one scanned entry between the header pass and the
// payload load: identity, shape, and the stamp that orders recovery.
type storeCandidate struct {
	path   string
	key    string
	header storeHeader
	stamp  int64 // max(saved, mtime): the last access
	size   int64 // file size on disk
}

// headerReadLimit bounds the first read of an entry file; a well-formed
// header is a few hundred bytes, so a missing newline within the limit
// means the header (or the whole file) is damaged.
const headerReadLimit = 16 << 10

// scanEntry reads and classifies one entry file's header. It returns the
// candidate, or a non-empty quarantine reason.
func (s *store) scanEntry(path string) (storeCandidate, string, string) {
	c := storeCandidate{path: path}
	fi, err := os.Stat(path)
	if err != nil {
		return c, quarUnreadable, err.Error()
	}
	c.size = fi.Size()
	f, err := os.Open(path)
	if err != nil {
		return c, quarUnreadable, err.Error()
	}
	defer f.Close()
	buf := make([]byte, headerReadLimit)
	n, _ := f.Read(buf)
	buf = buf[:n]
	nl := bytes.IndexByte(buf, '\n')
	if nl < 0 {
		if c.size > headerReadLimit {
			return c, quarHeader, "no header line within the first 16KiB"
		}
		return c, quarTruncated, "file ends inside the header line"
	}
	var h storeHeader
	if err := json.Unmarshal(buf[:nl], &h); err != nil {
		return c, quarHeader, err.Error()
	}
	if h.Kind != storeHeaderKind {
		return c, quarHeader, fmt.Sprintf("kind %q", h.Kind)
	}
	if h.Version != storeVersion {
		return c, quarStaleVersion, fmt.Sprintf("entry version %d, daemon version %d", h.Version, storeVersion)
	}
	if h.Seed != s.seed || h.Threads != s.threads {
		return c, quarConfigMismatch, fmt.Sprintf("entry bound to seed=%d threads=%d, daemon runs seed=%d threads=%d",
			h.Seed, h.Threads, s.seed, s.threads)
	}
	wantKey := strings.TrimSuffix(filepath.Base(path), storeEntrySuffix)
	if h.Key != wantKey {
		return c, quarKeyMismatch, fmt.Sprintf("header key %.12s..., filename key %.12s...", h.Key, wantKey)
	}
	// The shape is bounded before its payload length is computed, so that
	// length cannot overflow: rows and cols fit the int32 column indices,
	// and every nonzero costs payload bytes, so nnz is at most the file
	// size.
	if h.Rows < 0 || h.Cols < 0 || h.NNZ < 0 ||
		h.Rows > math.MaxInt32 || h.Cols > math.MaxInt32 || int64(h.NNZ) > c.size ||
		h.PayloadBytes != payloadLen(h.Rows, h.NNZ) {
		return c, quarInvalid, fmt.Sprintf("declared payload %d bytes, shape %dx%d nnz %d implies %d",
			h.PayloadBytes, h.Rows, h.Cols, h.NNZ, payloadLen(h.Rows, h.NNZ))
	}
	if c.size != int64(nl+1)+h.PayloadBytes {
		return c, quarTruncated, fmt.Sprintf("file is %d bytes, header+payload need %d",
			c.size, int64(nl+1)+h.PayloadBytes)
	}
	c.key = h.Key
	c.header = h
	c.stamp = max(h.SavedUnixNano, fi.ModTime().UnixNano())
	return c, "", ""
}

// loadEntry reads, verifies and decodes one admitted candidate into a
// cache entry. It returns a non-empty quarantine reason on any mismatch:
// a flipped byte, a truncation raced in after the scan, or a payload that
// decodes to an invalid matrix. The store/read fault point fires first,
// keyed by the entry's content hash.
func (s *store) loadEntry(c storeCandidate) (*entry, string, string) {
	if err := faultinject.Check(faultinject.StoreRead, c.key); err != nil {
		return nil, quarUnreadable, err.Error()
	}
	data, err := os.ReadFile(c.path)
	if err != nil {
		return nil, quarUnreadable, err.Error()
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 || int64(len(data)-nl-1) != c.header.PayloadBytes {
		return nil, quarTruncated, fmt.Sprintf("payload is %d bytes, header declares %d",
			max(len(data)-nl-1, 0), c.header.PayloadBytes)
	}
	payload := data[nl+1:]
	sum := sha256.Sum256(payload)
	if got := hex.EncodeToString(sum[:]); got != c.header.PayloadSHA256 {
		return nil, quarChecksum, fmt.Sprintf("payload sha256 %.12s..., header declares %.12s...",
			got, c.header.PayloadSHA256)
	}
	h := c.header
	alg := reorder.Algorithm(h.Algorithm)
	known := false
	for _, a := range reorder.AllOrderings {
		if alg == a {
			known = true
			break
		}
	}
	if !known {
		return nil, quarInvalid, fmt.Sprintf("unknown ordering %q", h.Algorithm)
	}
	mat := &sparse.CSR{
		Rows:   h.Rows,
		Cols:   h.Cols,
		RowPtr: make([]int, h.Rows+1),
		ColIdx: make([]int32, h.NNZ),
		Val:    make([]float64, h.NNZ),
	}
	perm := make(sparse.Perm, h.Rows)
	off := 0
	for i := range mat.RowPtr {
		mat.RowPtr[i] = int(binary.LittleEndian.Uint64(payload[off:]))
		off += 8
	}
	for i := range mat.ColIdx {
		mat.ColIdx[i] = int32(binary.LittleEndian.Uint32(payload[off:]))
		off += 4
	}
	for i := range mat.Val {
		mat.Val[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[off:]))
		off += 8
	}
	for i := range perm {
		perm[i] = int(binary.LittleEndian.Uint64(payload[off:]))
		off += 8
	}
	if err := mat.Validate(); err != nil {
		return nil, quarInvalid, err.Error()
	}
	if err := perm.Validate(); err != nil {
		return nil, quarInvalid, err.Error()
	}
	e, err := newEntry(h.Key, alg, mat, perm, h.ReorderSeconds, s.threads)
	if err != nil {
		return nil, quarInvalid, err.Error()
	}
	return e, "", ""
}

// listEntries returns the paths of every entry file on disk, sorted by
// name for a deterministic scan order.
func (s *store) listEntries() ([]string, error) {
	ents, err := os.ReadDir(s.entriesDir)
	if err != nil {
		return nil, err
	}
	var paths []string
	for _, de := range ents {
		if de.IsDir() || !strings.HasSuffix(de.Name(), storeEntrySuffix) {
			continue
		}
		paths = append(paths, filepath.Join(s.entriesDir, de.Name()))
	}
	return paths, nil
}
