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

// ShortestDecimal is DecimalToFloat64's inverse for float64 output: the
// decimal mant × 10^e10 with the fewest significant digits that rounds back
// to |v|, the closest such decimal to |v| when several qualify, and the one
// with an even last digit on a tie. That is strconv's shortest rule
// (FormatFloat with precision −1). mant carries no trailing zeros, and 0
// gives (0, 0). The sign is the caller's (math.Signbit); a non-finite v has
// no decimal and also gives (0, 0).
//
// The engine is Giulietti's Schubfach ("The Schubfach way to render
// doubles", 2020): three 128-bit round-to-odd products of the binary
// significand's interval ends and midpoint by 10^−k place the rounding
// interval on the decimal grid, and at most two comparisons pick the
// answer. Its 126-bit constants are the Eisel–Lemire table above,
// (elPow10[−k] >> 2) + 1, so no second power-of-ten table exists.
//
// Two departures from the paper's reference code give Go's rule rather
// than Java's Double.toString, which demands at least two digits: tiny
// subnormals are not rescaled by 10 (the C_TINY case), and the
// one-digit-shorter candidate is tried from s ≥ 10 instead of s ≥ 100.
// With them one engine matches strconv on subnormals too
// (TestShortestDecimalMatchesStrconv).
func ShortestDecimal(v float64) (mant uint64, e10 int) {
	b := math.Float64bits(v)
	t := b & (1<<52 - 1)
	switch bq := int(b>>52) & 0x7FF; {
	case bq == 0x7FF:
		return 0, 0
	case bq != 0:
		// Normal: v = c·2^q with c = 2^52 + t and q = bq − 1075.
		c := 1<<52 | t
		mq := 1075 - bq
		// An integer below 2^52 is its own shortest decimal: the rounding
		// interval is at most 1/2 wide, so it holds no other integer.
		if 0 < mq && mq < 53 {
			if f := c >> uint(mq); f<<uint(mq) == c {
				return trimDecimalZeros(f, 0)
			}
		}
		return schubfach(-mq, c)
	case t != 0:
		return schubfach(-1074, t) // subnormal: v = t·2^−1074
	}
	return 0, 0
}

// schubfach returns the shortest decimal in the rounding interval of
// c·2^q; see ShortestDecimal.
func schubfach(q int, c uint64) (uint64, int) {
	// The interval ends are half an ulp away on either side, except just
	// above a power of two, where the lower neighbour is a quarter ulp
	// away; in units of a quarter ulp they are cbl and cbr around cb.
	// They belong to the interval when c is even (round half to even).
	out := c & 1
	cb := c << 2
	cbr := cb + 2
	var cbl uint64
	var k int
	if c != 1<<52 || q == -1074 {
		cbl = cb - 2
		k = floorLog10Pow2(q)
	} else {
		cbl = cb - 1
		k = floorLog10ThreeQuartersPow2(q)
	}
	// h ∈ [1, 4] aligns the products so that vb, vbl and vbr are the
	// scaled values c·2^q·10^−k in units of a quarter, rounded to odd.
	h := uint(q + (217706*-k)>>16 + 2)
	g1, g0 := schubfachG(-k)
	vb := roundToOdd(g1, g0, cb<<h)
	vbl := roundToOdd(g1, g0, cbl<<h)
	vbr := roundToOdd(g1, g0, cbr<<h)

	s := vb >> 2
	if s >= 10 {
		// One digit shorter: the multiples of 10 either side of s.
		sp10 := s / 10 * 10
		tp10 := sp10 + 10
		upin := vbl+out <= sp10<<2
		wpin := tp10<<2+out <= vbr
		if upin != wpin {
			if upin {
				return trimDecimalZeros(sp10, k)
			}
			return trimDecimalZeros(tp10, k)
		}
	}
	// s and s+1 bracket v; take the one in the interval, or the closer
	// (then the even one) when both are.
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	r := t
	if uin != win {
		if uin {
			r = s
		}
	} else if cmp := int64(vb - (s+t)<<1); cmp < 0 || cmp == 0 && s&1 == 0 {
		r = s
	}
	// From s ≥ 10 on, an r ending in 0 would be sp10 or tp10 and have
	// been returned above, so only t = 10 after s = 9 has a zero to trim.
	if r == 10 {
		return 1, k + 1
	}
	return r, k
}

// floorLog10Pow2 is ⌊q·log10(2)⌋ and floorLog10ThreeQuartersPow2 is
// ⌊log10(3/4·2^q)⌋ in Giulietti's fixed point, exact well beyond the
// float64 exponents.
func floorLog10Pow2(q int) int { return (q * 661971961083) >> 41 }

func floorLog10ThreeQuartersPow2(q int) int {
	return (q*661971961083 - 274743187321) >> 41
}

// schubfachG splits Schubfach's g = ⌊10^p·2^r⌋ + 1, normalized to
// [2^125, 2^126), into its top 63 bits g1 and low 63 bits g0. The
// Eisel–Lemire entry for 10^p is the same product normalized to
// [2^127, 2^128), so g is that entry shifted down two bits, plus one.
func schubfachG(p int) (g1, g0 uint64) {
	e := &elPow10[p-elMinExp10]
	hi, lo := e[0]>>2, e[1]>>2|e[0]<<62
	lo++
	if lo == 0 {
		hi++
	}
	return hi<<1 | lo>>63, lo & (1<<63 - 1)
}

// roundToOdd is ⌊g·cp / 2^127⌋ with its lowest bit set when the discarded
// part is nonzero: the round-to-odd product Schubfach's comparisons need,
// computed from the 63-bit halves of g.
func roundToOdd(g1, g0, cp uint64) uint64 {
	x1, _ := bits.Mul64(g0, cp)
	y1, y0 := bits.Mul64(g1, cp)
	z := y0>>1 + x1
	vbp := y1 + z>>63
	return vbp | (z&(1<<63-1)+(1<<63-1))>>63
}

// trimDecimalZeros moves the trailing zeros of a nonzero mant into e10.
func trimDecimalZeros(mant uint64, e10 int) (uint64, int) {
	for mant%10 == 0 {
		mant /= 10
		e10++
	}
	return mant, e10
}
