package sparse

import (
	"math"
	"math/big"
	"math/bits"
)

// Fast-path entry-line scanner for the parallel ingestion pipeline.
//
// parseEntryFast parses the overwhelmingly common shape of a coordinate
// entry — decimal indices and a plain decimal value separated by runs of
// spaces or tabs — in a single left-to-right pass with no allocation. It
// returns ok=false for anything outside that shape (comments, blanks,
// malformed or out-of-range entries, exotic value spellings like "inf",
// hex floats or 20+ digit mantissas), routing the line through the
// reference grammar in parseEntryLine, which either accepts it with
// identical semantics or produces the diagnostic. The fast path therefore
// accepts a strict subset of the reference grammar and never disagrees
// with it on a value: the Clinger small-number path is the same exact
// single-operation rounding parseValueField uses, and the Eisel–Lemire
// path below is correctly rounded by construction (verified exhaustively
// against strconv in the tests).
func parseEntryFast(line []byte, pattern, skew bool, rows, cols int) (int, int, float64, bool) {
	p, n := 0, len(line)
	for p < n && (line[p] == ' ' || line[p] == '\t') {
		p++
	}
	// Row index: bare digits, 1-based, bounded by rows.
	start := p
	i := 0
	for p < n && line[p] >= '0' && line[p] <= '9' {
		i = i*10 + int(line[p]-'0')
		if i > math.MaxInt32 {
			return 0, 0, 0, false
		}
		p++
	}
	if p == start || i < 1 || i > rows {
		return 0, 0, 0, false
	}
	if p >= n || (line[p] != ' ' && line[p] != '\t') {
		return 0, 0, 0, false
	}
	for p < n && (line[p] == ' ' || line[p] == '\t') {
		p++
	}
	// Column index.
	start = p
	j := 0
	for p < n && line[p] >= '0' && line[p] <= '9' {
		j = j*10 + int(line[p]-'0')
		if j > math.MaxInt32 {
			return 0, 0, 0, false
		}
		p++
	}
	if p == start || j < 1 || j > cols {
		return 0, 0, 0, false
	}

	v := 1.0
	if !pattern {
		if p >= n || (line[p] != ' ' && line[p] != '\t') {
			return 0, 0, 0, false
		}
		for p < n && (line[p] == ' ' || line[p] == '\t') {
			p++
		}
		// Value: [sign] digits [. digits] [e|E [sign] digits]. The
		// mantissa accumulates into a uint64; 19 decimal digits always
		// fit, so the cap below rejects the line before a wrapped value
		// could ever be used.
		neg := false
		if p < n && (line[p] == '+' || line[p] == '-') {
			neg = line[p] == '-'
			p++
		}
		var mant uint64
		digits, e10 := 0, 0
		for p < n && line[p] >= '0' && line[p] <= '9' {
			mant = mant*10 + uint64(line[p]-'0')
			digits++
			p++
		}
		if p < n && line[p] == '.' {
			p++
			for p < n && line[p] >= '0' && line[p] <= '9' {
				mant = mant*10 + uint64(line[p]-'0')
				digits++
				e10--
				p++
			}
		}
		if digits == 0 || digits > 19 {
			return 0, 0, 0, false
		}
		if p < n && (line[p] == 'e' || line[p] == 'E') {
			p++
			esign := 1
			if p < n && (line[p] == '+' || line[p] == '-') {
				if line[p] == '-' {
					esign = -1
				}
				p++
			}
			estart, ev := p, 0
			for p < n && line[p] >= '0' && line[p] <= '9' {
				ev = ev*10 + int(line[p]-'0')
				if ev > 10000 {
					return 0, 0, 0, false
				}
				p++
			}
			if p == estart {
				return 0, 0, 0, false
			}
			e10 += esign * ev
		}
		var ok bool
		v, ok = DecimalToFloat64(mant, e10, neg)
		if !ok {
			return 0, 0, 0, false
		}
	}

	// Only trailing whitespace may remain; anything else is the reference
	// grammar's "trailing token" error.
	for p < n && (line[p] == ' ' || line[p] == '\t' || line[p] == '\r') {
		p++
	}
	if p != n {
		return 0, 0, 0, false
	}
	if skew && i == j {
		return 0, 0, 0, false
	}
	return i - 1, j - 1, v, true
}

// DecimalToFloat64 converts the decimal mant × 10^e10 (negated if neg) to
// the correctly rounded float64, or reports ok=false when it cannot
// guarantee correct rounding and the caller must fall back to strconv.
// The Matrix Market fast path and the daemon's SpMV body decoder share it.
func DecimalToFloat64(mant uint64, e10 int, neg bool) (float64, bool) {
	// Clinger's fast path: both the mantissa and the power of ten are
	// exactly representable, so one IEEE multiply or divide rounds
	// correctly. This is the same computation parseValueField performs.
	if mant < 1<<53 && e10 >= -22 && e10 <= 22 {
		f := float64(mant)
		if neg {
			f = -f
		}
		if e10 >= 0 {
			return f * pow10[e10], true
		}
		return f / pow10[-e10], true
	}
	return eiselLemire(mant, e10, neg)
}

// Eisel–Lemire correctly rounded decimal→binary conversion (Lemire,
// "Number Parsing at a Gigabyte per Second", 2021): multiply the
// normalized 64-bit decimal mantissa by a truncated 128-bit binary
// representation of 10^e10 and round, bailing out in the rare cases where
// truncation could affect the rounding. The bail-outs (and the subnormal
// and overflow ranges) fall back to strconv via the caller.

const elMinExp10, elMaxExp10 = -348, 347

// elPow10[q-elMinExp10] holds the truncated 128-bit mantissa of 10^q,
// normalized to [2^127, 2^128), as {high, low} 64-bit halves. The table is
// computed exactly at init with big.Int instead of being pasted in as ~700
// lines of literals.
var elPow10 [elMaxExp10 - elMinExp10 + 1][2]uint64

func init() {
	ten := big.NewInt(10)
	mask64 := new(big.Int).SetUint64(math.MaxUint64)
	m, t := new(big.Int), new(big.Int)
	for q := elMinExp10; q <= elMaxExp10; q++ {
		// f = floor(q·log2(10)); the fixed-point approximation is exact
		// over the table's range (the normalization check below would
		// panic otherwise).
		f := (217706 * q) >> 16
		if q >= 0 {
			m.Exp(ten, t.SetInt64(int64(q)), nil)
			if s := 127 - f; s >= 0 {
				m.Lsh(m, uint(s))
			} else {
				m.Rsh(m, uint(-s))
			}
		} else {
			den := new(big.Int).Exp(ten, t.SetInt64(int64(-q)), nil)
			m.Quo(t.Lsh(big.NewInt(1), uint(127-f)), den)
		}
		if m.BitLen() != 128 {
			panic("sparse: power-of-ten table normalization failed")
		}
		elPow10[q-elMinExp10][1] = t.And(m, mask64).Uint64()
		elPow10[q-elMinExp10][0] = m.Rsh(m, 64).Uint64()
	}
}

func eiselLemire(mant uint64, e10 int, neg bool) (float64, bool) {
	if mant == 0 {
		if neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	if e10 < elMinExp10 || e10 > elMaxExp10 {
		return 0, false
	}
	clz := bits.LeadingZeros64(mant)
	mant <<= uint(clz)
	retExp2 := uint64((217706*e10)>>16+64+1023) - uint64(clz)

	pow := &elPow10[e10-elMinExp10]
	xHi, xLo := bits.Mul64(mant, pow[0])
	if xHi&0x1FF == 0x1FF && xLo+mant < xLo {
		// The truncated high product is on a rounding boundary; refine
		// with the low 64 bits of the power, and bail if still ambiguous.
		yHi, yLo := bits.Mul64(mant, pow[1])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+mant < yLo {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	msb := xHi >> 63
	retMant := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb
	// Half-way between two float64s with all truncated bits zero: the
	// round-to-even decision could go either way, so defer to strconv.
	if xLo == 0 && xHi&0x1FF == 0 && retMant&3 == 1 {
		return 0, false
	}
	retMant += retMant & 1
	retMant >>= 1
	if retMant>>53 > 0 {
		retMant >>= 1
		retExp2++
	}
	// retExp2 ∈ [1, 0x7FE] is the normal range; anything else (subnormal,
	// ±Inf) goes to strconv.
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	b := retMant&(1<<52-1) | retExp2<<52
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}
