package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets are the default histogram bucket upper bounds in seconds,
// matching the Prometheus client defaults: wide enough for microsecond
// phase timings and multi-minute matrix evaluations alike.
var DefBuckets = []float64{.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30, 60, 120, 300}

// Registry is a process-local metrics registry: counters, gauges and
// histograms identified by a family name plus a fixed label set, exported
// in Prometheus text format. Handle lookup takes a short read lock; the
// handles themselves update lock-free with atomics, so hot paths fetch a
// handle once and hammer it from any number of goroutines.
type Registry struct {
	mu         sync.RWMutex
	families   map[string]*family
	collectors []func(io.Writer) error
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family groups every series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	bounds []float64 // histograms only

	mu     sync.Mutex
	series map[string]any // label signature → *Counter | *Gauge | *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// Counter is a monotonically increasing counter. Safe for concurrent use.
type Counter struct {
	labels []Label
	v      atomic.Uint64
}

// Add increments the counter by n (n must be ≥ 0).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable float64 value. Safe for concurrent use.
type Gauge struct {
	labels []Label
	bits   atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d to the gauge (CAS loop; lock-free).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket latency histogram. Observe is lock-free: a
// binary search over the immutable bounds plus three atomic updates.
type Histogram struct {
	labels  []Label
	bounds  []float64 // sorted upper bounds; the +Inf bucket is implicit
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one value. A value equal to a bucket's upper bound lands
// in that bucket (le is ≤, as in Prometheus).
func (h *Histogram) Observe(v float64) {
	// First bucket whose bound is ≥ v; len(bounds) is the +Inf bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// family fetches or creates the named family, panicking on a kind
// mismatch — re-registering a name as a different metric type is a
// programming error no test should let through.
func (r *Registry) family(name, help string, kind metricKind, bounds []float64) *family {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		if f = r.families[name]; f == nil {
			f = &family{name: name, help: help, kind: kind, bounds: bounds, series: map[string]any{}}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	return f
}

// signature serialises a label set into a canonical map key.
func signature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte(1)
		b.WriteString(l.Value)
		b.WriteByte(2)
	}
	return b.String()
}

// Counter returns the counter for the given family and label set, creating
// it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	f := r.family(name, help, kindCounter, nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	sig := signature(labels)
	if c, ok := f.series[sig]; ok {
		return c.(*Counter)
	}
	c := &Counter{labels: append([]Label(nil), labels...)}
	f.series[sig] = c
	return c
}

// Gauge returns the gauge for the given family and label set.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	f := r.family(name, help, kindGauge, nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	sig := signature(labels)
	if g, ok := f.series[sig]; ok {
		return g.(*Gauge)
	}
	g := &Gauge{labels: append([]Label(nil), labels...)}
	f.series[sig] = g
	return g
}

// Histogram returns the histogram for the given family and label set. The
// bucket bounds of the first registration win for the whole family.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	f := r.family(name, help, kindHistogram, bounds)
	f.mu.Lock()
	defer f.mu.Unlock()
	sig := signature(labels)
	if h, ok := f.series[sig]; ok {
		return h.(*Histogram)
	}
	h := &Histogram{
		labels: append([]Label(nil), labels...),
		bounds: f.bounds,
		counts: make([]atomic.Uint64, len(f.bounds)+1),
	}
	f.series[sig] = h
	return h
}

// Families returns the sorted names of every registered metric family —
// the surface the naming-convention lint test sweeps.
func (r *Registry) Families() []string {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	return names
}

// AddCollector registers a scrape-time collector: fn runs at the end of
// every WritePrometheus call and appends its own exposition-format lines.
// It suits metrics whose source of truth lives outside the registry (the
// fault-injection counters, say) and would otherwise need mirroring into
// handles on every update.
func (r *Registry) AddCollector(fn func(io.Writer) error) {
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// WritePrometheus renders every family in Prometheus text exposition
// format (version 0.0.4). Families and series are emitted in sorted order
// so the output is deterministic; registered collectors run last, in
// registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	collectors := r.collectors
	r.mu.RUnlock()
	sort.Strings(names)

	for _, name := range names {
		r.mu.RLock()
		f := r.families[name]
		r.mu.RUnlock()
		f.mu.Lock()
		sigs := make([]string, 0, len(f.series))
		series := make(map[string]any, len(f.series))
		for sig, s := range f.series {
			sigs = append(sigs, sig)
			series[sig] = s
		}
		f.mu.Unlock()
		sort.Strings(sigs)

		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, sig := range sigs {
			if err := writeSeries(w, f, series[sig]); err != nil {
				return err
			}
		}
	}
	for _, fn := range collectors {
		if err := fn(w); err != nil {
			return err
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s any) error {
	switch m := s.(type) {
	case *Counter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, labelString(m.labels, nil), m.Value())
		return err
	case *Gauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(m.labels, nil), formatFloat(m.Value()))
		return err
	case *Histogram:
		cum := uint64(0)
		for i, bound := range m.bounds {
			cum += m.counts[i].Load()
			le := Label{"le", formatFloat(bound)}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(m.labels, &le), cum); err != nil {
				return err
			}
		}
		cum += m.counts[len(m.bounds)].Load()
		inf := Label{"le", "+Inf"}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(m.labels, &inf), cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelString(m.labels, nil), formatFloat(m.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelString(m.labels, nil), m.Count())
		return err
	}
	return nil
}

// labelString renders {k="v",…}, escaping label values; extra (the le
// bucket label) is appended last when non-nil.
func labelString(labels []Label, extra *Label) string {
	if len(labels) == 0 && extra == nil {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		writeLabel(&b, l)
	}
	if extra != nil {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		writeLabel(&b, *extra)
	}
	b.WriteByte('}')
	return b.String()
}

func writeLabel(b *strings.Builder, l Label) {
	b.WriteString(l.Key)
	b.WriteString(`="`)
	v := l.Value
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	b.WriteByte('"')
}

// formatFloat renders a float the way Prometheus expects.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return fmt.Sprintf("%g", v)
}
