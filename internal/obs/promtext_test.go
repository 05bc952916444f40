package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"testing"
)

func TestParsePromLine(t *testing.T) {
	cases := []struct {
		line   string
		name   string
		labels map[string]string
		value  float64
	}{
		{`foo 42`, "foo", map[string]string{}, 42},
		{`foo{a="b"} 1.5`, "foo", map[string]string{"a": "b"}, 1.5},
		{`h_bucket{route="spmv",le="+Inf"} 7`, "h_bucket",
			map[string]string{"route": "spmv", "le": "+Inf"}, 7},
		{`e{k="a\"b\\c\nd"} 0`, "e", map[string]string{"k": "a\"b\\c\nd"}, 0},
	}
	for _, tc := range cases {
		s, err := parseSample(tc.line)
		if err != nil {
			t.Fatalf("parse %q: %v", tc.line, err)
		}
		if s.Name != tc.name || s.Value != tc.value {
			t.Errorf("%q: got (%q, %v), want (%q, %v)", tc.line, s.Name, s.Value, tc.name, tc.value)
		}
		for k, v := range tc.labels {
			if s.Labels[k] != v {
				t.Errorf("%q: label %s = %q, want %q", tc.line, k, s.Labels[k], v)
			}
		}
	}
	for _, line := range []string{
		"garbage",              // no value
		`x{a="unterminated 3`,  // unterminated label value
		`x{a="\q"} 1`,          // bad escape
		"x{a=\"raw\nline\"} 1", // raw newline in a label value
		`x{a="1"b="2"} 1`,      // missing comma
		`x{a="1",a="2"} 1`,     // repeated label
		`x{1a="v"} 1`,          // label name grammar
		`x{a=v} 1`,             // unquoted label value
		`x  1`,                 // two spaces
		`x 1 1700000000`,       // timestamp
		`x 1e999`,              // value out of range
		`9x 1`,                 // metric name grammar
		`x-y 1`,                // metric name grammar
		`x{a="v"}1`,            // no space before the value
		` x 1`,                 // leading space
		"x 1\r",                // carriage return
	} {
		if s, err := parseSample(line); err == nil {
			t.Errorf("parseSample(%q) = %+v, want an error", line, s)
		}
	}
}

// seedRegistry builds a registry covering every metric kind, awkward label
// values and special float values, and returns its histogram.
func seedRegistry() (*Registry, *Histogram) {
	r := NewRegistry()
	r.Counter("sparseorder_seed_total", "a counter", Label{"path", `C:\tmp "x"` + "\nend"}).Add(1 << 60)
	r.Counter("sparseorder_seed_total", "a counter", Label{"path", ""}).Inc()
	r.Gauge("sparseorder_seed_gauge", "a gauge", Label{"a", "1"}, Label{"b", "}{,= "}).Set(-2.5e-300)
	r.Gauge("sparseorder_seed_inf", "a gauge").Set(math.Inf(-1))
	r.Gauge("sparseorder_seed_nan", "a gauge").Set(math.NaN())
	h := r.Histogram("sparseorder_seed_seconds", "a histogram", DefBuckets, Label{"route", "spmv"})
	for _, v := range []float64{0.0001, 0.02, 5, 1e6, 1.0 / 3} {
		h.Observe(v)
	}
	return r, h
}

// TestParseTextRoundTrip asserts that every sample a registry writes
// parses back to the value the registry recorded.
func TestParseTextRoundTrip(t *testing.T) {
	r, h := seedRegistry()
	want := map[string]float64{
		`sparseorder_seed_total{path=C:\tmp "x"` + "\nend}": 1 << 60,
		`sparseorder_seed_total{path=}`:                     1,
		`sparseorder_seed_gauge{a=1,b=}{,= }`:               -2.5e-300,
		`sparseorder_seed_inf{}`:                            math.Inf(-1),
		`sparseorder_seed_nan{}`:                            math.NaN(),
	}
	cum := uint64(0)
	for i, c := range bucketCounts(h) {
		cum += c
		le := "+Inf"
		if i < len(DefBuckets) {
			le = formatFloat(DefBuckets[i])
		}
		want["sparseorder_seed_seconds_bucket{le="+le+",route=spmv}"] = float64(cum)
	}
	want["sparseorder_seed_seconds_sum{route=spmv}"] = h.Sum()
	want["sparseorder_seed_seconds_count{route=spmv}"] = float64(h.Count())

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseText(b.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(want) {
		t.Errorf("parsed %d samples, registry wrote %d", len(samples), len(want))
	}
	for _, s := range samples {
		key := sampleKey(s)
		w, ok := want[key]
		if !ok {
			t.Errorf("unexpected sample %s", key)
			continue
		}
		if math.Float64bits(s.Value) != math.Float64bits(w) && !(math.IsNaN(s.Value) && math.IsNaN(w)) {
			t.Errorf("%s = %v, registry recorded %v", key, s.Value, w)
		}
	}
}

// sampleKey renders a sample as name{k=v,…} with the labels sorted.
func sampleKey(s Sample) string {
	keys := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		keys[i] = k + "=" + s.Labels[k]
	}
	return s.Name + "{" + strings.Join(keys, ",") + "}"
}

// FuzzParseText: any bytes give a clean error or samples whose names and
// label names match the Prometheus grammar; never a panic.
func FuzzParseText(f *testing.F) {
	var b strings.Builder
	r, _ := seedRegistry()
	r.AddCollector(RuntimeCollector())
	r.AddCollector(func(w io.Writer) error {
		_, err := fmt.Fprint(w, "# TYPE sparseorder_seed_custom gauge\nsparseorder_seed_custom 7\n")
		return err
	})
	if err := r.WritePrometheus(&b); err != nil {
		f.Fatal(err)
	}
	f.Add(b.String())
	for _, line := range strings.Split(b.String(), "\n") {
		f.Add(line)
	}
	f.Add(`x{a="\q"} 1`)
	f.Add("x{a=\"raw\nline\"} 1")
	f.Add(`x{a="1"b="2"} 1`)
	f.Fuzz(func(t *testing.T, text string) {
		samples, err := ParseText(text)
		if err != nil {
			return
		}
		for _, s := range samples {
			if !nameRE.MatchString(s.Name) {
				t.Fatalf("accepted metric name %q", s.Name)
			}
			for k := range s.Labels {
				if !labelRE.MatchString(k) {
					t.Fatalf("accepted label name %q in %s", k, s.Name)
				}
			}
		}
	})
}
