package obs

import (
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

// bucketCounts returns h's per-bucket (non-cumulative) counts; the last
// entry is the +Inf bucket.
func bucketCounts(h *Histogram) []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// TestHistogramBucketBoundaries pins the ≤ semantics of le buckets: a value
// exactly equal to a bound lands in that bucket, the next representable
// value above it in the next, and values beyond the last bound in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("b", "", []float64{1, 2, 5})
	for _, v := range []float64{
		0,                              // le=1
		1,                              // le=1 (exact bound)
		math.Nextafter(1, 2),           // le=2 (just above)
		2,                              // le=2 (exact bound)
		5,                              // le=5 (exact last bound)
		math.Nextafter(5, math.Inf(1)), // +Inf
		100,                            // +Inf
	} {
		h.Observe(v)
	}
	want := []uint64{2, 2, 1, 2} // per-bucket, last is +Inf
	if got := bucketCounts(h); !reflect.DeepEqual(got, want) {
		t.Errorf("bucket counts = %v, want %v", got, want)
	}
	if h.Count() != 7 {
		t.Errorf("count = %d, want 7", h.Count())
	}
	wantSum := 0 + 1 + math.Nextafter(1, 2) + 2 + 5 + math.Nextafter(5, math.Inf(1)) + 100
	if math.Abs(h.Sum()-wantSum) > 1e-9 {
		t.Errorf("sum = %v, want %v", h.Sum(), wantSum)
	}
}

// TestHistogramPrometheusCumulative checks the text exposition is
// cumulative with a +Inf bucket and _sum/_count lines.
func TestHistogramPrometheusCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []float64{1, 2})
	for _, v := range []float64{0.5, 1, 1.5, 3} {
		h.Observe(v)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, line := range []string{
		"# HELP lat latency",
		"# TYPE lat histogram",
		`lat_bucket{le="1"} 2`,
		`lat_bucket{le="2"} 3`,
		`lat_bucket{le="+Inf"} 4`,
		"lat_sum 6",
		"lat_count 4",
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("output missing %q:\n%s", line, out)
		}
	}
}

// TestCounterGaugeSeries checks handle identity per label set and the
// rendered sample lines.
func TestCounterGaugeSeries(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("hits", "h", Label{"k", "a"})
	if r.Counter("hits", "h", Label{"k", "a"}) != a {
		t.Error("same labels did not return the same counter handle")
	}
	b := r.Counter("hits", "h", Label{"k", "b"})
	if a == b {
		t.Error("different labels shared a handle")
	}
	a.Inc()
	a.Add(2)
	b.Inc()
	if a.Value() != 3 || b.Value() != 1 {
		t.Errorf("values = %d, %d", a.Value(), b.Value())
	}

	g := r.Gauge("level", "l")
	g.Set(2.5)
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Errorf("gauge = %v", g.Value())
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, line := range []string{`hits{k="a"} 3`, `hits{k="b"} 1`, "level 1.5"} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("output missing %q:\n%s", line, out)
		}
	}
	// Families must come out sorted, so the document is deterministic.
	if strings.Index(out, "# TYPE hits") > strings.Index(out, "# TYPE level") {
		t.Errorf("families not sorted:\n%s", out)
	}
}

// TestWritePrometheusDeterministic renders twice and compares.
func TestWritePrometheusDeterministic(t *testing.T) {
	r := NewRegistry()
	for _, v := range []string{"e", "a", "c", "b", "d"} {
		r.Counter("m", "", Label{"k", v}).Inc()
	}
	render := func() string {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if a, b := render(), render(); a != b {
		t.Errorf("non-deterministic output:\n%s\nvs\n%s", a, b)
	}
}

// TestLabelEscaping checks backslash, quote and newline escaping in label
// values.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "", Label{"k", "a\\b\"c\nd"}).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `m{k="a\\b\"c\nd"} 1`
	if !strings.Contains(b.String(), want+"\n") {
		t.Errorf("output missing %q:\n%s", want, b.String())
	}
}

// TestKindMismatchPanics: re-registering a family as another kind is a
// programming error and must fail loudly.
func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch did not panic")
		}
	}()
	r.Gauge("m", "")
}

// TestHistogramConcurrent hammers one histogram from many goroutines; run
// under -race this validates the lock-free Observe path.
func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("c", "", []float64{0.5})
	done := make(chan struct{})
	const g, n = 8, 1000
	for i := 0; i < g; i++ {
		go func(i int) {
			defer func() { done <- struct{}{} }()
			for j := 0; j < n; j++ {
				h.Observe(float64(j%2) * 1.0)
			}
		}(i)
	}
	for i := 0; i < g; i++ {
		<-done
	}
	if h.Count() != g*n {
		t.Errorf("count = %d, want %d", h.Count(), g*n)
	}
	if h.Sum() != g*n/2 {
		t.Errorf("sum = %v, want %v", h.Sum(), g*n/2)
	}
}

// TestAddCollector checks that scrape-time collectors render after every
// family, in registration order, and that a collector error aborts the
// write.
func TestAddCollector(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total", "").Inc()
	r.AddCollector(func(w io.Writer) error {
		_, err := io.WriteString(w, "extern_a 1\n")
		return err
	})
	r.AddCollector(func(w io.Writer) error {
		_, err := io.WriteString(w, "extern_b 2\n")
		return err
	})
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	zz := strings.Index(out, "zz_total 1")
	a := strings.Index(out, "extern_a 1")
	bb := strings.Index(out, "extern_b 2")
	if zz < 0 || a < 0 || bb < 0 || !(zz < a && a < bb) {
		t.Fatalf("collector output missing or misordered:\n%s", out)
	}

	boom := errors.New("boom")
	r.AddCollector(func(io.Writer) error { return boom })
	if err := r.WritePrometheus(io.Discard); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}
