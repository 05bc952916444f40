package sparse

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// shortestOracle is strconv's shortest decimal for |v| as (mant, e10),
// read back from FormatFloat's 'e' spelling d.ddde±xx; buf is scratch.
func shortestOracle(buf []byte, v float64) (uint64, int, []byte) {
	buf = strconv.AppendFloat(buf[:0], math.Abs(v), 'e', -1, 64)
	var mant uint64
	digits, i := 0, 0
	for ; buf[i] != 'e'; i++ {
		if buf[i] != '.' {
			mant = mant*10 + uint64(buf[i]-'0')
			digits++
		}
	}
	exp, err := strconv.Atoi(string(buf[i+1:]))
	if err != nil {
		panic(err)
	}
	if mant == 0 {
		return 0, 0, buf
	}
	return mant, exp - (digits - 1), buf
}

// TestShortestDecimalMatchesStrconv holds ShortestDecimal to strconv's
// shortest rule over every binary exponent with the significands at and
// next to its ends, every subnormal significand below 2^21, the
// formatting boundaries of encoding/json's spelling and random bit
// patterns, and checks that each answer converts back to v.
func TestShortestDecimalMatchesStrconv(t *testing.T) {
	var buf []byte
	fails := 0
	check := func(v float64) {
		t.Helper()
		mant, e10 := ShortestDecimal(v)
		var wm uint64
		var we int
		wm, we, buf = shortestOracle(buf, v)
		if mant != wm || e10 != we {
			fails++
			if fails <= 10 {
				t.Errorf("ShortestDecimal(%v) [bits %#x] = %de%d, strconv %de%d",
					v, math.Float64bits(v), mant, e10, wm, we)
			}
			return
		}
		// Where the fast converter declines (subnormals, halfway cases) the
		// match with strconv's own round-tripping output already implies it.
		if back, ok := DecimalToFloat64(mant, e10, math.Signbit(v)); ok && math.Float64bits(back) != math.Float64bits(v) {
			fails++
			t.Errorf("%de%d reads back as %v, not %v", mant, e10, back, v)
		}
	}

	rng := rand.New(rand.NewSource(22))
	ends := []uint64{0, 1, 2, 3, 1 << 51, 1<<52 - 2, 1<<52 - 1}
	for bq := uint64(0); bq < 0x7FF; bq++ {
		for _, m := range ends {
			check(math.Float64frombits(bq<<52 | m))
		}
		for i := 0; i < 200; i++ {
			check(math.Float64frombits(bq<<52 | rng.Uint64()&(1<<52-1)))
		}
	}
	for m := uint64(1); m < 1<<21; m++ {
		check(math.Float64frombits(m))
	}
	for _, v := range []float64{1e-6, 1e21, 1e-7, 1e20, 1e22, 1e23, 5e-324, math.MaxFloat64, math.SmallestNonzeroFloat64} {
		for _, w := range []float64{v, math.Nextafter(v, 0), math.Nextafter(v, math.MaxFloat64)} {
			check(w)
			check(-w)
		}
	}
	random := 10_000_000
	if testing.Short() || raceEnabled {
		random = 200_000
	}
	for i := 0; i < random; i++ {
		b := rng.Uint64()
		if b>>52&0x7FF == 0x7FF {
			continue // ±Inf and NaN have no decimal
		}
		check(math.Float64frombits(b))
	}
}

// TestShortestDecimalGoRule pins the subnormals where Java's
// Double.toString, which demands two digits, differs from strconv: the
// reference Schubfach rescales these, ShortestDecimal must not.
func TestShortestDecimalGoRule(t *testing.T) {
	for _, tc := range []struct {
		mant uint64 // the subnormal's significand
		want string
	}{
		{1, "5e-324"}, {2, "1e-323"}, {10, "5e-323"}, {12, "6e-323"},
		{14, "7e-323"}, {16, "8e-323"}, {18, "9e-323"}, {20, "1e-322"},
	} {
		m, e := ShortestDecimal(math.Float64frombits(tc.mant))
		if got := strconv.FormatUint(m, 10) + "e" + strconv.Itoa(e); got != tc.want {
			t.Errorf("subnormal %d: %s, want %s", tc.mant, got, tc.want)
		}
	}
	for _, v := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()} {
		if m, e := ShortestDecimal(v); m != 0 || e != 0 {
			t.Errorf("ShortestDecimal(%v) = %de%d, want 0e0", v, m, e)
		}
	}
	if m, e := ShortestDecimal(-1234.5); m != 12345 || e != -1 {
		t.Errorf("ShortestDecimal(-1234.5) = %de%d, want 12345e-1", m, e)
	}
}

// BenchmarkShortestDecimal times the formatter's digit generation on
// N(0, 3) values against strconv's shortest path on the same values.
func BenchmarkShortestDecimal(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vs := make([]float64, 2048)
	for i := range vs {
		vs[i] = 3 * rng.NormFloat64()
	}
	b.Run("schubfach", func(b *testing.B) {
		var sink uint64
		for i := 0; i < b.N; i++ {
			m, _ := ShortestDecimal(vs[i&2047])
			sink += m
		}
		_ = sink
	})
	b.Run("strconv", func(b *testing.B) {
		buf := make([]byte, 0, 32)
		for i := 0; i < b.N; i++ {
			buf = strconv.AppendFloat(buf[:0], vs[i&2047], 'e', -1, 64)
		}
	})
}
