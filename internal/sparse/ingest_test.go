package sparse

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"sparseorder/internal/faultinject"
)

// edgeCorpus is a set of hand-written Matrix Market streams covering the
// format corners the ingestion pipeline must agree on with the oracle
// reader: empty rows (including a fully empty matrix), single-row and
// single-column shapes, pattern values, symmetric expansion with and
// without diagonal entries, skew-symmetric expansion, duplicates, and
// comment/blank noise between entries.
var edgeCorpus = []struct {
	name string
	mm   string
}{
	{"empty", "%%MatrixMarket matrix coordinate real general\n0 0 0\n"},
	{"no_entries", "%%MatrixMarket matrix coordinate real general\n5 7 0\n"},
	{"empty_rows", "%%MatrixMarket matrix coordinate real general\n6 6 3\n1 1 1\n4 2 -2.5\n4 6 3e-2\n"},
	{"one_by_n", "%%MatrixMarket matrix coordinate real general\n1 8 4\n1 8 1\n1 1 2\n1 4 3\n1 2 4\n"},
	{"n_by_one", "%%MatrixMarket matrix coordinate real general\n8 1 3\n8 1 1\n2 1 2\n5 1 3\n"},
	{"pattern", "%%MatrixMarket matrix coordinate pattern general\n3 3 4\n1 1\n2 3\n3 1\n3 3\n"},
	{"integer", "%%MatrixMarket matrix coordinate integer general\n3 3 3\n1 2 7\n2 2 -4\n3 1 19\n"},
	{"symmetric", "%%MatrixMarket matrix coordinate real symmetric\n4 4 5\n1 1 1\n2 1 2\n3 2 3\n4 4 4\n4 1 5\n"},
	{"symmetric_offdiag_only", "%%MatrixMarket matrix coordinate real symmetric\n4 4 3\n2 1 2\n3 2 3\n4 1 5\n"},
	{"pattern_symmetric", "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 3\n"},
	{"skew", "%%MatrixMarket matrix coordinate real skew-symmetric\n4 4 3\n2 1 1\n4 3 -2\n3 1 0.5\n"},
	{"duplicates", "%%MatrixMarket matrix coordinate real general\n3 3 5\n1 1 1\n1 1 2\n2 3 4\n2 3 -4\n3 3 8\n"},
	{"comment_noise", "%%MatrixMarket matrix coordinate real general\n% head\n\n3 3 2\n% between\n1 1 1\n\n% more\n3 3 2\n% tail comment\n"},
	{"exponents", "%%MatrixMarket matrix coordinate real general\n2 2 4\n1 1 1.7976931348623157e308\n1 2 -2.2250738585072014E-308\n2 1 1e-322\n2 2 123456789012345678901.5\n"},
}

// TestIngestMatchesSerialEdgeCorpus checks that the pipeline is
// byte-identical to the line-at-a-time oracle over the edge corpus at
// every worker count, 1 included (reflect.DeepEqual covers slice contents
// bit for bit, since Equal compares float64 with ==, which DeepEqual
// matches for non-NaN values).
func TestIngestMatchesSerialEdgeCorpus(t *testing.T) {
	for _, tc := range edgeCorpus {
		want, err := readMatrixMarketOracle(strings.NewReader(tc.mm))
		if err != nil {
			t.Fatalf("%s: oracle rejected corpus entry: %v", tc.name, err)
		}
		for _, workers := range append(workerCounts(), 7) {
			got, err := ReadMatrixMarketWorkers(strings.NewReader(tc.mm), workers)
			if err != nil {
				t.Fatalf("%s: workers=%d: %v", tc.name, workers, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s: workers=%d diverged from the oracle", tc.name, workers)
			}
		}
	}
}

// TestIngestRoundTripEdgeCorpus is the Write→Read round-trip property:
// writing any corpus matrix and reading it back at any worker count
// reproduces it exactly.
func TestIngestRoundTripEdgeCorpus(t *testing.T) {
	for _, tc := range edgeCorpus {
		a, err := ReadMatrixMarketWorkers(strings.NewReader(tc.mm), 1)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteMatrixMarket(&buf, a); err != nil {
			t.Fatal(err)
		}
		text := buf.String()
		for _, workers := range []int{1, 2, 4} {
			c, err := ReadMatrixMarketWorkers(strings.NewReader(text), workers)
			if err != nil {
				t.Fatalf("%s: re-read (workers=%d): %v", tc.name, workers, err)
			}
			if !a.Equal(c) {
				t.Errorf("%s: round trip (workers=%d) changed the matrix", tc.name, workers)
			}
		}
	}
}

func randomMM(rng *rand.Rand, rows, cols, nnz int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n", rows, cols, nnz)
	for k := 0; k < nnz; k++ {
		fmt.Fprintf(&sb, "%d %d %.17g\n", 1+rng.Intn(rows), 1+rng.Intn(cols), rng.NormFloat64())
	}
	return sb.String()
}

// TestIngestDeterminism checks the repo-wide determinism contract on a
// randomly generated stream with duplicates: the output equals the
// oracle's at every worker count, including worker counts that exceed the
// entry count per chunk.
func TestIngestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	text := randomMM(rng, 200, 150, 3000)
	want, err := readMatrixMarketOracle(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range append(workerCounts(), 7) {
		got, err := ReadMatrixMarketWorkers(strings.NewReader(text), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("workers=%d diverged from the oracle", workers)
		}
	}
}

// TestToCSRWorkersMatchesSerial checks the assembly layer directly, on a
// COO whose duplicate entries force the compaction path: ToCSR (one
// segment, 1 worker) and the segmented assembly at every worker count
// match the sequential oracle.
func TestToCSRWorkersMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(60), 1+rng.Intn(60)
		coo := NewCOO(rows, cols, 0)
		for k := 0; k < rng.Intn(500); k++ {
			coo.Append(rng.Intn(rows), rng.Intn(cols), rng.NormFloat64())
		}
		want, err := toCSROracle(coo)
		if err != nil {
			t.Fatal(err)
		}
		got, err := coo.ToCSR()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("trial %d: ToCSR diverged from the oracle", trial)
		}
		for _, workers := range append(workerCounts(), 7) {
			got, err := assembleWorkers(coo, workers)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("trial %d workers=%d diverged from the oracle", trial, workers)
			}
		}
	}
}

// TestToCSRWorkersRejectsOutOfRange checks that the segmented assembly
// bounds-checks entries in every segment, not only the first.
func TestToCSRWorkersRejectsOutOfRange(t *testing.T) {
	coo := &COO{Rows: 2, Cols: 2, Row: []int32{0, 1, 5}, Col: []int32{0, 1, 0}, Val: []float64{1, 2, 3}}
	if _, err := assembleWorkers(coo, 4); err == nil {
		t.Error("segmented assembly accepted an out-of-range entry")
	}
}

// hugeNNZHeader declares 2^26 entries in 65 bytes.
const hugeNNZHeader = "%%MatrixMarket matrix coordinate real general\n3 3 67108864\n1 1 1\n"

// TestIngestHugeDeclaredNNZ checks that the reader sizes its buffers from
// the bytes it is given, not from the nnz a header declares: a 65-byte
// stream claiming 2^26 entries allocates well under a megabyte before it
// is rejected as truncated.
func TestIngestHugeDeclaredNNZ(t *testing.T) {
	const want = "sparse: after 1 of 67108864 entries: unexpected EOF"
	for _, w := range []int{1, 3} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadMatrixMarketWorkers(bytes.NewReader([]byte(hugeNNZHeader)), w)
		runtime.ReadMemStats(&after)
		if err == nil || err.Error() != want {
			t.Errorf("workers=%d: err = %v, want %q", w, err, want)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Errorf("workers=%d: allocated %d bytes for a %d-byte stream", w, d, len(hugeNNZHeader))
		}
	}
}

// Strictness sweep: inputs the historical reader silently tolerated must
// now be rejected — by the pipeline and the oracle alike.
func TestReadersRejectMalformedInputs(t *testing.T) {
	cases := []struct {
		name string
		mm   string
	}{
		{"size_trailing_token", "%%MatrixMarket matrix coordinate real general\n2 2 1 junk\n1 1 1\n"},
		{"entry_trailing_token", "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1 junk\n"},
		{"pattern_entry_with_value", "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1 1\n"},
		{"entry_missing_value", "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n"},
		{"skew_explicit_diagonal", "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n1 1 3\n"},
		{"trailing_content", "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1\ntrailing\n"},
		{"too_few_entries", "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1\n"},
		{"size_non_numeric", "%%MatrixMarket matrix coordinate real general\n2 x 1\n1 1 1\n"},
		{"index_zero", "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1\n"},
		{"index_out_of_range", "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1\n"},
		{"huge_dimensions", "%%MatrixMarket matrix coordinate real general\n3000000000 1 0\n"},
		{"negative_nnz", "%%MatrixMarket matrix coordinate real general\n2 2 -1\n"},
	}
	for _, tc := range cases {
		if _, err := readMatrixMarketOracle(strings.NewReader(tc.mm)); err == nil {
			t.Errorf("%s: oracle accepted malformed input", tc.name)
		}
		for _, w := range []int{1, 3} {
			if _, err := ReadMatrixMarketWorkers(strings.NewReader(tc.mm), w); err == nil {
				t.Errorf("%s: workers=%d accepted malformed input", tc.name, w)
			}
		}
	}
}

// TestIngestChunkFault checks the per-chunk fault point: an armed plan
// covering ingest/chunk fails the parallel read with the injected error,
// and the decision is deterministic across repeated runs.
func TestIngestChunkFault(t *testing.T) {
	defer faultinject.Activate(nil)
	text := randomMM(rand.New(rand.NewSource(3)), 100, 100, 2000)
	faultinject.Activate(faultinject.NewPlan(1,
		faultinject.Rule{Point: faultinject.IngestChunk, Mode: faultinject.ModeError, Rate: 1}))
	for run := 0; run < 3; run++ {
		_, err := ReadMatrixMarketWorkers(strings.NewReader(text), 4)
		if !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("run %d: err = %v, want injected fault", run, err)
		}
	}
	faultinject.Activate(nil)
	a, err := ReadMatrixMarketWorkers(strings.NewReader(text), 4)
	if err != nil {
		t.Fatalf("after deactivation: %v", err)
	}
	if a.NNZ() == 0 {
		t.Error("after deactivation: empty matrix")
	}
}
