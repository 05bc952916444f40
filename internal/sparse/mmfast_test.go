package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// TestDecToFloatMatchesStrconv checks the fast decimal→binary conversion
// bit for bit against strconv.ParseFloat over random mantissa/exponent
// pairs spanning the whole table range, including the truncation and
// halfway cases where the algorithm is allowed to bail but never to
// return a wrong bit pattern.
func TestDecToFloatMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	check := func(mant uint64, e10 int, neg bool) {
		got, ok := DecimalToFloat64(mant, e10, neg)
		if !ok {
			return // bailing to strconv is always allowed
		}
		s := strconv.FormatUint(mant, 10) + "e" + strconv.Itoa(e10)
		if neg {
			s = "-" + s
		}
		want, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("strconv rejected %q: %v", s, err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("DecimalToFloat64(%d, %d, %v) = %x, strconv = %x (%q)",
				mant, e10, neg, math.Float64bits(got), math.Float64bits(want), s)
		}
	}
	for trial := 0; trial < 500000; trial++ {
		mant := rng.Uint64() >> uint(rng.Intn(64))
		e10 := rng.Intn(2*(elMaxExp10+10)) - elMaxExp10 - 10
		check(mant, e10, rng.Intn(2) == 0)
	}
	// Powers of two and their neighbours stress the rounding boundaries.
	for p := uint(0); p < 64; p++ {
		for d := -1; d <= 1; d++ {
			m := uint64(1)<<p + uint64(d)
			for _, e := range []int{-310, -100, -23, -22, -5, 0, 5, 22, 23, 100, 308} {
				check(m, e, false)
				check(m, e, true)
			}
		}
	}
	if v, ok := DecimalToFloat64(0, 0, true); !ok || math.Float64bits(v) != math.Float64bits(math.Copysign(0, -1)) {
		t.Error("DecimalToFloat64(0, 0, neg) is not -0")
	}
}

// entryHeaders are the four header modes the entry-scanner tests cover:
// a value field or none, and each symmetry the scanner treats apart.
var entryHeaders = []MMHeader{
	{Object: "matrix", Format: "coordinate", Field: "real", Symmetry: "general"},
	{Object: "matrix", Format: "coordinate", Field: "pattern", Symmetry: "symmetric"},
	{Object: "matrix", Format: "coordinate", Field: "integer", Symmetry: "skew-symmetric"},
	{Object: "matrix", Format: "coordinate", Field: "pattern", Symmetry: "skew-symmetric"},
}

// entrySeps are field separators, and bytes that look like one but are
// not: U+0085 and U+00A0 are Unicode spaces, which the grammar keeps
// inside a field.
var entrySeps = []string{" ", "  ", "\t", " \t", "\v", "\f", "\r", "\u0085", "\u00a0"}

// entryIndices are index spellings: in and out of range, signed, zero
// padded, past int32 and int64, and not a number.
var entryIndices = []string{"1", "2", "3", "7", "40", "41", "50", "51", "0", "-1", "+3", "-0",
	"007", "2147483648", "4294967298", "9223372036854775807", "9223372036854775808",
	"12345678901234567890", "1a", "+", "%", "3.0", "1e1"}

// entryValues are value spellings: plain decimals, exponents, the extremes
// of the float64 range, long mantissas, and what strconv alone accepts
// or rejects.
var entryValues = []string{"1", "-1", "0", "-0", "3.25", "1e4", "-2.5E-3", "0.0001",
	"1.7976931348623157e308", "4.9406564584124654e-324", "123456789012345678.9",
	"99999999999999999999", "1.", ".5", "+3", "inf", "-Inf", "nan", "NaN", "0x1p3",
	"1_0", "1e999", "1e-400", "1e", "1e+", "--1", "1.2.3", ".", "-", "+.5e-3",
	"9007199254740993", "0.000000000000000000000000001", "1e10001", "%"}

// scanUnderTest runs the production entry grammar on one raw line, in the
// shape parseEntryOracle returns.
func scanUnderTest(line []byte, h MMHeader, rows, cols int) (i, j int, v float64, skip bool, err error) {
	i, j, v, entry, err := scanEntry(line, h.Field == "pattern", h.Symmetry == "skew-symmetric", rows, cols)
	return i, j, v, !entry && err == nil, err
}

// checkEntryAgreement fails t unless the production scanner and the
// oracle agree on line under h: both skip it, both reject it with the same
// message, or both accept it with the same indices and value bits.
func checkEntryAgreement(t *testing.T, line string, h MMHeader, rows, cols int) {
	t.Helper()
	gi, gj, gv, gskip, gerr := scanUnderTest([]byte(line), h, rows, cols)
	wi, wj, wv, wskip, werr := parseEntryOracle([]byte(line), h, rows, cols)
	switch {
	case gskip != wskip:
		t.Fatalf("%s/%s %q: scanner skip=%v, oracle skip=%v", h.Field, h.Symmetry, line, gskip, wskip)
	case (gerr == nil) != (werr == nil):
		t.Fatalf("%s/%s %q: scanner err=%v, oracle err=%v", h.Field, h.Symmetry, line, gerr, werr)
	case gerr != nil && gerr.Error() != werr.Error():
		t.Fatalf("%s/%s %q: scanner says %q, oracle says %q", h.Field, h.Symmetry, line, gerr, werr)
	case gi != wi || gj != wj || math.Float64bits(gv) != math.Float64bits(wv):
		t.Fatalf("%s/%s %q: scanner (%d,%d,%x), oracle (%d,%d,%x)", h.Field, h.Symmetry, line,
			gi, gj, math.Float64bits(gv), wi, wj, math.Float64bits(wv))
	}
}

// TestParseEntryFastAgreesWithReference drives random well-formed and
// malformed lines, in every header mode, through the production entry
// scanner and the strconv oracle, which must agree on every line: skip,
// reject with the same message, or accept with the same indices and value
// bits. The lines vary their field count, separators (those outside the
// set included), index and value spellings, and comment placement.
func TestParseEntryFastAgreesWithReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const rows, cols = 50, 40
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	var sb strings.Builder
	for trial := 0; trial < 100000; trial++ {
		sb.Reset()
		if rng.Intn(3) == 0 {
			sb.WriteString(pick(entrySeps))
		}
		if rng.Intn(50) == 0 {
			sb.WriteString("%")
		}
		fields := 1 + rng.Intn(4)
		for f := 0; f < fields; f++ {
			if f > 0 {
				sb.WriteString(pick(entrySeps))
			}
			switch {
			case f < 2 && rng.Intn(4) != 0:
				n := rows
				if f == 1 {
					n = cols
				}
				sb.WriteString(strconv.Itoa(rng.Intn(n+3) - 1))
			case f < 2:
				sb.WriteString(pick(entryIndices))
			default:
				sb.WriteString(pick(entryValues))
			}
		}
		if rng.Intn(3) == 0 {
			sb.WriteString(pick(entrySeps))
		}
		for _, h := range entryHeaders {
			checkEntryAgreement(t, sb.String(), h, rows, cols)
		}
	}
	// Format corners, each in every header mode.
	corners := []string{"", "   ", "\r", "% comment", "  %x", "1 1 1 junk", "0 1 1", "1 99 1",
		"1 1", "1", "1 1 inf", "1 1 1e999", "1,1,1", "3 3 1", "3 4", "3 4 1", "3\v4\f1\r",
		"3\u00854 1", "+3 +4 +1", "2147483648 1 1", "99999999999999999999 1 1", "1 1 %",
		"3 3 x", "1a 1 1", "1 1a 1", "1a 1a x", "60 1a 1"}
	for _, line := range corners {
		for _, h := range entryHeaders {
			checkEntryAgreement(t, line, h, rows, cols)
		}
	}
	// The header modes differ where they should: a pattern entry has two
	// fields and a unit value, and a skew-symmetric diagonal is rejected.
	real, pattern, skew := entryHeaders[0], entryHeaders[1], entryHeaders[2]
	if i, j, v, _, err := scanUnderTest([]byte("3 4"), pattern, rows, cols); err != nil || i != 2 || j != 3 || v != 1 {
		t.Error("scanner mishandled a pattern entry")
	}
	if _, _, _, _, err := scanUnderTest([]byte("3 4 1"), pattern, rows, cols); err == nil {
		t.Error("scanner accepted a pattern entry with a value")
	}
	if _, _, _, _, err := scanUnderTest([]byte("3 3 1"), skew, rows, cols); err == nil {
		t.Error("scanner accepted a skew-symmetric diagonal")
	}
	if _, _, _, _, err := scanUnderTest([]byte("3 3 1"), real, rows, cols); err != nil {
		t.Errorf("scanner rejected a general diagonal: %v", err)
	}
}

// TestParseValueFastPathParity pins the %.17g writer output — the exact
// spellings WriteMatrixMarket produces — and its shortest spellings to
// bit-identical parses through the production scanner and the oracle, with
// the fields split by every separator in the set.
func TestParseValueFastPathParity(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	h := entryHeaders[0]
	seps := []string{" ", "\t", "\v", "\f", "\r", " \t "}
	for trial := 0; trial < 100000; trial++ {
		want := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(600)-300))
		s := fmt.Sprintf("%.17g", want)
		if trial%2 == 1 {
			s = strconv.FormatFloat(want, 'g', -1, 64)
		}
		sep := seps[trial%len(seps)]
		line := "1" + sep + "1" + sep + s + sep
		i, j, v, _, err := scanUnderTest([]byte(line), h, 2, 2)
		if err != nil || i != 0 || j != 0 {
			t.Fatalf("scanner on %q: (%d,%d) %v", line, i, j, err)
		}
		checkEntryAgreement(t, line, h, 2, 2)
		if math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("scan of %q = %x, want %x", s, math.Float64bits(v), math.Float64bits(want))
		}
	}
}

// TestIngestParsesExoticSpellings checks end to end that value spellings
// the fast path refuses still parse identically through both readers.
func TestIngestParsesExoticSpellings(t *testing.T) {
	mm := "%%MatrixMarket matrix coordinate real general\n3 3 4\n" +
		"1 1 0.000000000000000000000000001\n" +
		"2 2 12345678901234567890123456789\n" +
		"3 3 1e-320\n" +
		"1 2 9007199254740993\n"
	want, err := readMatrixMarketOracle(strings.NewReader(mm))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadMatrixMarketWorkers(strings.NewReader(mm), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(got) {
		t.Error("readers disagree on exotic value spellings")
	}
}
