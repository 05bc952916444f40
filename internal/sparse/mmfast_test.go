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

// TestParseEntryFastAgreesWithReference drives random well-formed and
// near-well-formed lines through both the fast scanner and the reference
// grammar: whenever the fast path accepts, the reference must accept with
// identical results, and the fast path must never accept a line the
// reference rejects.
func TestParseEntryFastAgreesWithReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	h := MMHeader{Object: "matrix", Format: "coordinate", Field: "real", Symmetry: "general"}
	const rows, cols = 50, 40
	values := []string{"1", "-1", "0", "-0", "3.25", "1e4", "-2.5E-3", "0.0001",
		"1.7976931348623157e308", "4.9406564584124654e-324", "123456789012345678.9",
		"99999999999999999999", "1.", ".5", "+3", "inf", "nan", "1e", "1e+", "--1", "1.2.3"}
	seps := []string{" ", "  ", "\t", " \t"}
	for trial := 0; trial < 200000; trial++ {
		i, j := rng.Intn(rows+3)-1, rng.Intn(cols+3)-1
		line := fmt.Sprintf("%s%d%s%d%s%s%s",
			seps[rng.Intn(len(seps))], i,
			seps[rng.Intn(len(seps))], j,
			seps[rng.Intn(len(seps))], values[rng.Intn(len(values))],
			seps[rng.Intn(len(seps))])
		fi, fj, fv, ok := parseEntryFast([]byte(line), false, false, rows, cols)
		if !ok {
			continue
		}
		ri, rj, rv, err := parseEntryLine(trimMMSpace([]byte(line)), h, rows, cols)
		if err != nil {
			t.Fatalf("fast path accepted %q, reference rejected it: %v", line, err)
		}
		if fi != ri || fj != rj || math.Float64bits(fv) != math.Float64bits(rv) {
			t.Fatalf("fast path and reference disagree on %q: (%d,%d,%x) vs (%d,%d,%x)",
				line, fi, fj, math.Float64bits(fv), ri, rj, math.Float64bits(rv))
		}
	}
	// The fast path must route format corners to the reference grammar.
	rejects := []string{"", "   ", "% comment", "1 1 1 junk", "0 1 1", "1 99 1",
		"1 1", "1 1 inf", "1 1 1e999", "1,1,1"}
	for _, line := range rejects {
		if _, _, _, ok := parseEntryFast([]byte(line), false, false, rows, cols); ok {
			t.Errorf("fast path accepted %q, want fallback", line)
		}
	}
	// Pattern mode: exactly two fields, unit value.
	if i, j, v, ok := parseEntryFast([]byte("3 4"), true, false, rows, cols); !ok || i != 2 || j != 3 || v != 1 {
		t.Error("fast path mishandled a pattern entry")
	}
	if _, _, _, ok := parseEntryFast([]byte("3 4 1"), true, false, rows, cols); ok {
		t.Error("fast path accepted a pattern entry with a value")
	}
	// Skew-symmetric diagonals fall back so the reference can reject them.
	if _, _, _, ok := parseEntryFast([]byte("3 3 1"), false, true, rows, cols); ok {
		t.Error("fast path accepted a skew-symmetric diagonal")
	}
	if _, _, _, ok := parseEntryFast([]byte("3 4 1"), false, true, rows, cols); !ok {
		t.Error("fast path rejected a valid skew-symmetric off-diagonal")
	}
}

// TestParseValueFastPathParity pins the %.17g writer output — the exact
// spellings WriteMatrixMarket produces — to bit-identical parses through
// both value paths.
func TestParseValueFastPathParity(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100000; trial++ {
		want := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(600)-300))
		s := fmt.Sprintf("%.17g", want)
		line := "1 1 " + s
		i, j, v, ok := parseEntryFast([]byte(line), false, false, 2, 2)
		if !ok {
			continue // exotic spelling; the reference path covers it
		}
		if i != 0 || j != 0 {
			t.Fatalf("bad indices for %q", line)
		}
		ref, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(v) != math.Float64bits(ref) {
			t.Fatalf("fast parse of %q = %x, strconv = %x", s, math.Float64bits(v), math.Float64bits(ref))
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
	want, err := ReadMatrixMarket(strings.NewReader(mm))
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
