// Package faultinject provides seeded, deterministic fault injection for
// the study's durability-critical paths: matrix I/O, journal appends,
// atomic artifact writes and reordering phase boundaries.
//
// Instrumented code calls Check (or guards with Enabled) at a named fault
// Point. With no plan active — the production default — Check is a single
// atomic pointer load and a nil check: it allocates nothing and costs a
// few nanoseconds (asserted by TestCheckDisabledZeroAlloc and
// BenchmarkFaultDisabled). With a plan active, whether a fault fires at a
// given point is a pure function of the plan seed, the point name and the
// caller-supplied key, so two runs (or a run and its crash-resume) that
// visit the same (point, key) pairs observe the identical fault schedule —
// the property the chaos soak tests build on. Call sites that have no
// stable key pass "" and are keyed by a per-point hit counter instead;
// their schedule is deterministic within one process but restarts with it.
//
// Plans are built with ParseSpec (the format behind the SPARSEORDER_FAULTS
// environment knob and cmd/study's -faults flag) or assembled from Rule
// values directly, then installed process-wide with Activate.
package faultinject

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// Point names an injectable fault site. The constants below are the sites
// wired into the repository, and ParseSpec accepts no other; a new site
// adds its constant to points as well.
type Point string

// The wired fault points.
const (
	// MatrixRead fires at the top of sparse.ReadMatrixMarketCtx, which
	// every Matrix Market read goes through (keyless: streams carry no
	// stable identity).
	MatrixRead Point = "matrix/read"
	// IngestChunk fires at the start of each chunk parse in the parallel
	// ingestion pipeline, keyed by the chunk ordinal ("chunk0", "chunk1",
	// ...) so a schedule is stable across runs at a fixed worker count.
	IngestChunk Point = "ingest/chunk"
	// JournalAppend and JournalSync fire before the journal's record write
	// and fsync respectively, keyed by the matrix name being recorded.
	JournalAppend Point = "journal/append"
	JournalSync   Point = "journal/sync"
	// FileWrite, FileSync and FileRename fire inside
	// fsutil.WriteFileAtomic before the data write, the temp-file fsync
	// and the rename, keyed by the destination base name. FileWrite
	// additionally leaves a genuinely torn temp file behind (half the
	// payload) so cleanup paths are exercised against realistic debris.
	// FileDirSync fires before the parent-directory fsync that makes the
	// completed rename itself durable, keyed by the directory base name:
	// when it fires the destination already holds the new content, but
	// the caller must treat the write as non-durable.
	FileWrite   Point = "fsutil/write"
	FileSync    Point = "fsutil/sync"
	FileRename  Point = "fsutil/rename"
	FileDirSync Point = "fsutil/dirsync"
	// ReorderGraph, ReorderOrder and ReorderPermute fire at the phase
	// boundaries of reorder.ComputeTimedCtx / ApplyTimedCtx, keyed by
	// "alg/rows x cols/nnz" so the schedule is stable per (matrix, alg).
	ReorderGraph   Point = "reorder/graph"
	ReorderOrder   Point = "reorder/order"
	ReorderPermute Point = "reorder/permute"
	// ServerDecode, ServerReorder, ServerCacheInsert and ServerSpMV fire
	// on the request path of the serving daemon (internal/server): before
	// the Matrix Market decode, before the ordering computation, before
	// the plan-cache insert and before each SpMV execution. All four are
	// keyed by the upload's content hash, so a schedule hits the same
	// matrices in every run regardless of request interleaving.
	ServerDecode      Point = "server/decode"
	ServerReorder     Point = "server/reorder"
	ServerCacheInsert Point = "server/cache"
	ServerSpMV        Point = "server/spmv"
	// StoreWrite, StoreSync, StoreRead and StoreCorrupt cover the serving
	// daemon's persistent plan store (internal/server.Store), all keyed by
	// the entry's content hash. StoreWrite fires before an entry is
	// serialised (nothing lands on disk); StoreSync fires after the atomic
	// write completed but before the store reports it durable (the entry
	// exists but the writer must assume it might not survive a crash);
	// StoreRead fires before an entry file is read during warm-restart
	// recovery; StoreCorrupt fires after a successful write and flips one
	// payload byte on disk, manufacturing the exact corruption the
	// recovery checksum pass must quarantine.
	StoreWrite   Point = "store/write"
	StoreSync    Point = "store/fsync"
	StoreRead    Point = "store/read"
	StoreCorrupt Point = "store/corrupt"
)

// points is every wired Point, the names ParseSpec accepts.
var points = []Point{
	MatrixRead, IngestChunk, JournalAppend, JournalSync,
	FileWrite, FileSync, FileRename, FileDirSync,
	ReorderGraph, ReorderOrder, ReorderPermute,
	ServerDecode, ServerReorder, ServerCacheInsert, ServerSpMV,
	StoreWrite, StoreSync, StoreRead, StoreCorrupt,
}

// Mode is what happens when a fault fires.
type Mode int

// The fault modes.
const (
	// ModeError returns an error wrapping ErrInjected.
	ModeError Mode = iota
	// ModeENOSPC returns an error wrapping syscall.ENOSPC, simulating a
	// full disk.
	ModeENOSPC
	// ModeShortWrite returns an error wrapping io.ErrShortWrite; fsutil
	// additionally truncates the payload it writes, producing a real torn
	// temp file.
	ModeShortWrite
	// ModePanic panics with an *InjectedPanic; the runner's recovery
	// converts it into a retryable panic-class failure.
	ModePanic
	// ModeDelay sleeps Param milliseconds (default 10) and returns nil —
	// a latency fault, not a failure.
	ModeDelay
	// ModeAlloc allocates and touches Param MiB (default 64), releases it,
	// and returns nil — artificial allocation pressure for governor tests.
	ModeAlloc
)

// String names the mode with the vocabulary of ParseSpec.
func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModeENOSPC:
		return "enospc"
	case ModeShortWrite:
		return "shortwrite"
	case ModePanic:
		return "panic"
	case ModeDelay:
		return "delay"
	case ModeAlloc:
		return "alloc"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Rule arms one fault point.
type Rule struct {
	Point Point
	Mode  Mode
	// Rate is the firing probability per eligible hit, in [0, 1]. The
	// decision is a pure hash of (plan seed, point, key), so it is the
	// same for the same key in every run with the same seed.
	Rate float64
	// After suppresses the rule for the first After hits of the point
	// (counted per process), turning a rule into a "fail the N+1th
	// journal sync" style one-shot trigger.
	After uint64
	// Param is the mode parameter: milliseconds for ModeDelay, MiB for
	// ModeAlloc; ignored otherwise. 0 takes the mode's default.
	Param int
}

// Plan is an armed fault schedule. Plans are immutable after Activate
// except for their internal hit/fired counters.
type Plan struct {
	seed  int64
	rules map[Point][]Rule
	hits  map[Point]*atomic.Uint64
	fired map[Point]*atomic.Uint64
}

// NewPlan builds a plan from rules; rules for the same point all apply, in
// order, and the first that fires wins.
func NewPlan(seed int64, rules ...Rule) *Plan {
	p := &Plan{
		seed:  seed,
		rules: map[Point][]Rule{},
		hits:  map[Point]*atomic.Uint64{},
		fired: map[Point]*atomic.Uint64{},
	}
	for _, r := range rules {
		p.rules[r.Point] = append(p.rules[r.Point], r)
		if p.hits[r.Point] == nil {
			p.hits[r.Point] = new(atomic.Uint64)
			p.fired[r.Point] = new(atomic.Uint64)
		}
	}
	return p
}

// active is the process-wide armed plan; nil means fault injection is off
// and every Check is a nil check.
var active atomic.Pointer[Plan]

// Activate arms the plan process-wide; Activate(nil) disarms fault
// injection.
func Activate(p *Plan) { active.Store(p) }

// Enabled reports whether a plan is armed. Hot call sites that must build
// a key guard the key construction behind it so the disabled path stays
// allocation-free.
func Enabled() bool { return active.Load() != nil }

// Check consults the armed plan at the given point. It returns nil when no
// plan is armed, no rule covers the point, or the seeded decision does not
// fire; otherwise it returns (or panics with) the rule's fault. key should
// identify the unit of work stably across runs (matrix name, file base
// name); "" keys the decision by the per-point hit count instead.
func Check(pt Point, key string) error {
	p := active.Load()
	if p == nil {
		return nil
	}
	return p.check(pt, key)
}

func (p *Plan) check(pt Point, key string) error {
	rules := p.rules[pt]
	if len(rules) == 0 {
		return nil
	}
	hit := p.hits[pt].Add(1) - 1 // 0-based ordinal of this hit
	for _, r := range rules {
		if hit < r.After || r.Rate <= 0 {
			continue
		}
		if r.Rate < 1 {
			var h uint64
			if key == "" {
				h = mix(uint64(p.seed), fnv64(string(pt)), hit)
			} else {
				h = mix(uint64(p.seed), fnv64(string(pt)), fnv64(key))
			}
			if float64(h>>11)/(1<<53) >= r.Rate {
				continue
			}
		}
		p.fired[pt].Add(1)
		return fire(r, pt, key)
	}
	return nil
}

// ErrInjected is the sentinel every injected error wraps; errors.Is lets
// callers and tests tell injected faults from organic failures.
var ErrInjected = errors.New("faultinject: injected fault")

// InjectedPanic is the value ModePanic panics with.
type InjectedPanic struct {
	Point Point
	Key   string
}

func (p *InjectedPanic) String() string {
	return fmt.Sprintf("faultinject: injected panic at %s[%s]", p.Point, p.Key)
}

func fire(r Rule, pt Point, key string) error {
	switch r.Mode {
	case ModePanic:
		panic(&InjectedPanic{Point: pt, Key: key})
	case ModeDelay:
		ms := r.Param
		if ms <= 0 {
			ms = 10
		}
		time.Sleep(time.Duration(ms) * time.Millisecond)
		return nil
	case ModeAlloc:
		mib := r.Param
		if mib <= 0 {
			mib = 64
		}
		pressure(mib)
		return nil
	case ModeENOSPC:
		return &InjectedError{Point: pt, Key: key, Cause: syscall.ENOSPC}
	case ModeShortWrite:
		return &InjectedError{Point: pt, Key: key, Cause: io.ErrShortWrite}
	default:
		return &InjectedError{Point: pt, Key: key}
	}
}

// allocSink defeats dead-store elimination of the pressure buffer.
var allocSink byte

// pressure allocates and touches mib MiB so the heap genuinely grows for
// the duration of the call.
func pressure(mib int) {
	b := make([]byte, mib<<20)
	for i := 0; i < len(b); i += 4096 {
		b[i] = 1
	}
	allocSink = b[0]
}

// InjectedError is a fired fault's error value. It unwraps to ErrInjected
// and, when set, to the simulated cause (ENOSPC, io.ErrShortWrite).
type InjectedError struct {
	Point Point
	Key   string
	Cause error
}

// Error renders "faultinject: injected fault at point[key]: cause".
func (e *InjectedError) Error() string {
	s := fmt.Sprintf("%v at %s[%s]", ErrInjected, e.Point, e.Key)
	if e.Cause != nil {
		s += ": " + e.Cause.Error()
	}
	return s
}

// Unwrap exposes both the sentinel and the simulated cause.
func (e *InjectedError) Unwrap() []error {
	if e.Cause != nil {
		return []error{ErrInjected, e.Cause}
	}
	return []error{ErrInjected}
}

// Fired returns how many faults each armed point has fired in the active
// plan; nil when no plan is armed.
func Fired() map[Point]uint64 {
	p := active.Load()
	if p == nil {
		return nil
	}
	out := make(map[Point]uint64, len(p.fired))
	for pt, c := range p.fired {
		out[pt] = c.Load()
	}
	return out
}

// WritePrometheus renders the active plan's fired counters as a Prometheus
// text-format family, for registration as an obs.Registry collector. With
// no plan armed it writes nothing.
func WritePrometheus(w io.Writer) error {
	p := active.Load()
	if p == nil {
		return nil
	}
	pts := make([]string, 0, len(p.fired))
	for pt := range p.fired {
		pts = append(pts, string(pt))
	}
	sort.Strings(pts)
	if _, err := fmt.Fprintf(w, "# HELP sparseorder_faultinject_fired_total injected faults fired by point\n# TYPE sparseorder_faultinject_fired_total counter\n"); err != nil {
		return err
	}
	for _, pt := range pts {
		if _, err := fmt.Fprintf(w, "sparseorder_faultinject_fired_total{point=%q} %d\n",
			pt, p.fired[Point(pt)].Load()); err != nil {
			return err
		}
	}
	return nil
}

// fnv64 is FNV-1a over s.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix combines words with splitmix64 finalisation, giving a uniform 64-bit
// hash of the decision inputs.
func mix(words ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, w := range words {
		h ^= w
		h += 0x9e3779b97f4a7c15
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}
