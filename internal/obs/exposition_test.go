package obs

import (
	"fmt"
	"io"
	"regexp"
	"strings"
	"testing"
)

// nameRE is the Prometheus metric-name grammar; labelRE the label-name
// grammar. Every family and sample the registry emits must conform or
// real scrapers reject the whole exposition.
var (
	nameRE  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRE = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// validateExposition runs a line-level conformance check over a text
// exposition: sample lines parse (parseSample enforces the name and label
// grammar, quoting and escapes), every sample is preceded by its family's
// TYPE line, each family declares HELP/TYPE at most once, and histograms
// carry a +Inf bucket whose cumulative count equals _count.
func validateExposition(t *testing.T, text string) {
	t.Helper()
	typed := map[string]string{} // family -> type
	helped := map[string]bool{}  // family -> HELP seen
	infBucket := map[string]uint64{}
	counts := map[string]uint64{}

	for ln, line := range strings.Split(text, "\n") {
		where := fmt.Sprintf("line %d: %q", ln+1, line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if !nameRE.MatchString(parts[0]) {
				t.Errorf("%s: HELP for invalid name %q", where, parts[0])
			}
			if helped[parts[0]] {
				t.Errorf("%s: duplicate HELP for %s", where, parts[0])
			}
			helped[parts[0]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 {
				t.Errorf("%s: malformed TYPE line", where)
				continue
			}
			if _, dup := typed[parts[0]]; dup {
				t.Errorf("%s: duplicate TYPE for %s", where, parts[0])
			}
			switch parts[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Errorf("%s: unknown type %q", where, parts[1])
			}
			typed[parts[0]] = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Errorf("%s: unrecognized comment form", where)
			continue
		}

		smp, err := parseSample(line)
		if err != nil {
			t.Errorf("%s: %v", where, err)
			continue
		}
		name, labels, value := smp.Name, smp.Labels, smp.Value

		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			if base != name && typed[base] == "histogram" {
				family = base
			}
		}
		ftype, ok := typed[family]
		if !ok {
			t.Errorf("%s: sample before any TYPE line for %s", where, family)
		}

		if ftype == "histogram" {
			key := family + "|" + labelKeyWithoutLe(labels)
			switch {
			case strings.HasSuffix(name, "_bucket"):
				if labels["le"] == "+Inf" {
					infBucket[key] = uint64(value)
				}
			case strings.HasSuffix(name, "_count"):
				counts[key] = uint64(value)
			}
		}
		if ftype == "counter" && value < 0 {
			t.Errorf("%s: negative counter", where)
		}
	}

	for key, c := range counts {
		inf, ok := infBucket[key]
		if !ok {
			t.Errorf("histogram %s has no +Inf bucket", key)
			continue
		}
		if inf != c {
			t.Errorf("histogram %s: +Inf bucket %d != count %d", key, inf, c)
		}
	}
}

func labelKeyWithoutLe(labels map[string]string) string {
	var parts []string
	for k, v := range labels {
		if k == "le" {
			continue
		}
		parts = append(parts, k+"="+v)
	}
	// Order-insensitive join for map iteration.
	for i := 0; i < len(parts); i++ {
		for j := i + 1; j < len(parts); j++ {
			if parts[j] < parts[i] {
				parts[i], parts[j] = parts[j], parts[i]
			}
		}
	}
	return strings.Join(parts, ",")
}

// TestExpositionConformance renders a registry exercising every metric
// kind, awkward label values, and a custom collector, then validates the
// whole document line by line.
func TestExpositionConformance(t *testing.T) {
	r := NewRegistry()
	r.Counter("sparseorder_test_total", "a counter", Label{"path", `C:\tmp "x"` + "\nend"}).Inc()
	r.Counter("sparseorder_test_total", "a counter", Label{"path", "plain"}).Add(3)
	r.Gauge("sparseorder_test_gauge", "a gauge").Set(-2.5)
	h := r.Histogram("sparseorder_test_seconds", "a histogram", DefBuckets, Label{"route", "spmv"})
	for _, v := range []float64{0.0001, 0.02, 5, 1e6} {
		h.Observe(v)
	}
	r.AddCollector(RuntimeCollector())
	r.AddCollector(func(w io.Writer) error {
		_, err := fmt.Fprint(w, "# HELP sparseorder_test_custom collector-emitted gauge\n"+
			"# TYPE sparseorder_test_custom gauge\nsparseorder_test_custom 7\n")
		return err
	})

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	validateExposition(t, b.String())

	// The label value is escaped on the wire.
	if !strings.Contains(b.String(), `path="C:\\tmp \"x\"\nend"`) {
		t.Errorf("escaped label value missing:\n%s", b.String())
	}
}

// TestFamiliesLint asserts every family name the registry hands out obeys
// the Prometheus naming grammar — the compile-time guard for new metric
// call sites anywhere in the tree that lands in this registry.
func TestFamiliesLint(t *testing.T) {
	r := NewRegistry()
	r.Counter("sparseorder_lint_total", "")
	r.Gauge("sparseorder_lint_gauge", "")
	r.Histogram("sparseorder_lint_seconds", "", DefBuckets)
	fams := r.Families()
	if len(fams) != 3 {
		t.Fatalf("Families() = %v, want 3 entries", fams)
	}
	for _, f := range fams {
		if !nameRE.MatchString(f) {
			t.Errorf("family %q violates the Prometheus naming grammar", f)
		}
	}
}
