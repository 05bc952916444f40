package server

import (
	"encoding/binary"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"sparseorder/internal/sparse"
)

// The POST /spmv/{key} wire codec. Both directions carry one float per
// matrix row or column, and encoding/json's reflective walk over them cost
// the daemon an order of magnitude more than the multiply. The decoder
// scans the one body shape the route accepts in a single pass and converts
// each number with the Matrix Market ingest's correctly rounded converter;
// the encoder appends the reply into one buffer, spelling each float by
// encoding/json's rules from the shortest digits of sparse.ShortestDecimal.
// x is therefore bitwise what json.Unmarshal would produce, and every reply is byte for byte what json.NewEncoder(w).Encode would write
// for a struct{ Y []float64 `json:"y"` }.

// maxJSONFloatLen is the longest encoding/json spelling of a float64,
// "-0.0000012345678901234567": a sign, "0.", five zeros and 17 digits.
const maxJSONFloatLen = 25

// spmvWireBytes bounds the wire size of an n-entry {"x":[…]} or {"y":[…]}
// document as encoding/json spells it: each number plus its comma, the
// framing and the trailing newline.
func spmvWireBytes(n int) int64 {
	return int64(n)*(maxJSONFloatLen+1) + int64(len(`{"x":[]}`)+1)
}

// decodeSpMVBodyUpTo parses body into x[:0] under the strict grammar
//
//	ws '{' ws '"x"' ws ':' ws '[' ws [ number ws *( ',' ws number ws ) ] ']' ws '}' ws
//
// with RFC 8259 whitespace and numbers. Anything else is an error: other
// or repeated members, escaped or differently cased keys, null, strings,
// trailing bytes, and numbers outside the JSON grammar (NaN, Infinity, +1,
// 01, 1., .5) or beyond the float64 range (1e400; 1e-400 underflows to 0
// as in strconv). So is a number after the first maxLen: x never grows
// past the matrix's column count, whatever the body holds.
func decodeSpMVBodyUpTo(body []byte, x []float64, maxLen int) ([]float64, error) {
	s := bodyScanner{b: body}
	x = x[:0]
	for _, tok := range [...]string{`{`, `"x"`, `:`, `[`} {
		s.skipWS()
		if !s.consume(tok) {
			return nil, s.fail("want " + tok)
		}
	}
	s.skipWS()
	if !s.consume(`]`) {
		for {
			if len(x) == maxLen {
				return nil, s.fail(fmt.Sprintf("x has more than %d entries", maxLen))
			}
			v, err := s.number()
			if err != nil {
				return nil, err
			}
			x = append(x, v)
			s.skipWS()
			if s.consume(`]`) {
				break
			}
			if !s.consume(`,`) {
				return nil, s.fail("want , or ] after a number")
			}
			s.skipWS()
		}
	}
	s.skipWS()
	if !s.consume(`}`) {
		return nil, s.fail(`want }: "x" is the only member`)
	}
	s.skipWS()
	if s.p != len(s.b) {
		return nil, s.fail("trailing bytes after the object")
	}
	if x == nil {
		x = []float64{} // [] decodes to an empty, not a nil, slice
	}
	return x, nil
}

// bodyScanner is decodeSpMVBodyUpTo's cursor.
type bodyScanner struct {
	b []byte
	p int
}

func (s *bodyScanner) skipWS() {
	for s.p < len(s.b) {
		switch s.b[s.p] {
		case ' ', '\t', '\n', '\r':
			s.p++
		default:
			return
		}
	}
}

// consume advances past tok if the input continues with it.
func (s *bodyScanner) consume(tok string) bool {
	if len(s.b)-s.p < len(tok) || string(s.b[s.p:s.p+len(tok)]) != tok {
		return false
	}
	s.p += len(tok)
	return true
}

func (s *bodyScanner) fail(what string) error {
	return fmt.Errorf("offset %d: %s", s.p, what)
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// addDigit appends the decimal digit c to a mantissa of digits significant
// digits. ok is false when c would be a 20th significant digit, which a
// uint64 cannot always hold; the mantissa is then left as it was.
func addDigit(mant uint64, digits int, c byte) (uint64, int, bool) {
	if mant == 0 && c == '0' {
		return 0, digits, true // a leading zero adds nothing
	}
	if digits == 19 {
		return mant, digits, false
	}
	return mant*10 + uint64(c-'0'), digits + 1, true
}

// number scans one JSON number and converts it: up to 19 significant
// digits and a moderate exponent go through sparse.DecimalToFloat64,
// anything it declines (and longer mantissas) through strconv.ParseFloat,
// exactly as the Matrix Market entry scanner falls back.
func (s *bodyScanner) number() (float64, error) {
	b, p, start := s.b, s.p, s.p
	neg := p < len(b) && b[p] == '-'
	if neg {
		p++
	}
	var mant uint64
	digits, e10 := 0, 0 // significant digits in mant; mant × 10^e10 is the value
	fast := true        // false once mant or the exponent outgrows the fast path
	ok := true
	switch {
	case p < len(b) && b[p] == '0':
		p++ // a leading 0 stands alone: "01" stops after the 0
	case p < len(b) && b[p] >= '1' && b[p] <= '9':
		for ; p < len(b) && isDigit(b[p]); p++ {
			mant, digits, ok = addDigit(mant, digits, b[p])
			fast = fast && ok
		}
	default:
		s.p = p
		return 0, s.fail("want a JSON number")
	}
	if p < len(b) && b[p] == '.' {
		p++
		if p >= len(b) || !isDigit(b[p]) {
			s.p = p
			return 0, s.fail("want a digit after the decimal point")
		}
		for ; p < len(b) && isDigit(b[p]); p++ {
			mant, digits, ok = addDigit(mant, digits, b[p])
			fast = fast && ok
			e10--
		}
	}
	if p < len(b) && (b[p] == 'e' || b[p] == 'E') {
		p++
		esign := 1
		if p < len(b) && (b[p] == '+' || b[p] == '-') {
			if b[p] == '-' {
				esign = -1
			}
			p++
		}
		if p >= len(b) || !isDigit(b[p]) {
			s.p = p
			return 0, s.fail("want a digit in the exponent")
		}
		ev := 0
		for ; p < len(b) && isDigit(b[p]); p++ {
			if ev >= 10000 {
				fast = false // far outside float64; strconv saturates it
				continue
			}
			ev = ev*10 + int(b[p]-'0')
		}
		e10 += esign * ev
	}
	s.p = p
	if fast {
		if v, ok := sparse.DecimalToFloat64(mant, e10, neg); ok {
			return v, nil
		}
	}
	v, err := strconv.ParseFloat(string(b[start:p]), 64)
	if err != nil {
		s.p = start
		return 0, s.fail(fmt.Sprintf("number %s is outside the float64 range", b[start:p]))
	}
	return v, nil
}

// appendSpMVReply appends the reply document {"y":[…]} plus a newline, the
// bytes json.NewEncoder(w).Encode writes for y as the "y" member. JSON has no
// spelling for a non-finite number, so the first non-finite row is an
// error, as it is in encoding/json.
func appendSpMVReply(dst []byte, y []float64) ([]byte, error) {
	dst = append(dst, `{"y":[`...)
	for i, v := range y {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return dst, fmt.Errorf("y[%d] is %v, which a JSON reply cannot carry", i, v)
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONFloat(dst, v)
	}
	return append(dst, "]}\n"...), nil
}

// appendJSONFloat spells a finite f as encoding/json does (ES6 number to
// string): the shortest round-trip digits from sparse.ShortestDecimal, in
// exponent form below 1e-6 and from 1e21 up, with the exponent not padded
// to two digits (1e-7, 1.5e+21).
func appendJSONFloat(b []byte, f float64) []byte {
	if math.Signbit(f) {
		b = append(b, '-')
	}
	mant, e10 := sparse.ShortestDecimal(f)
	if mant == 0 {
		return append(b, '0')
	}
	// A float64's shortest digits number at most 17: a leading digit and
	// two 8-digit blocks, written with leading zeros at fixed places in
	// buf. mant > 0, so the zeros end before buf does.
	var buf [17]byte
	hi := mant / 1e8
	buf[0] = byte('0' + hi/1e8)
	put8Digits(buf[1:9], uint32(hi%1e8))
	put8Digits(buf[9:17], uint32(mant-hi*1e8))
	i := 0
	for buf[i] == '0' {
		i++
	}
	digits := buf[i:]

	if abs := math.Abs(f); abs < 1e-6 || abs >= 1e21 {
		b = append(b, digits[0])
		if len(digits) > 1 {
			b = append(b, '.')
			b = append(b, digits[1:]...)
		}
		exp := e10 + len(digits) - 1
		if exp < 0 {
			b = append(b, 'e', '-')
			exp = -exp
		} else {
			b = append(b, 'e', '+')
		}
		// |exp| ≤ 324: one to three digits.
		if exp >= 100 {
			b = append(b, byte('0'+exp/100))
		}
		if exp >= 10 {
			b = append(b, byte('0'+exp/10%10))
		}
		return append(b, byte('0'+exp%10))
	}
	switch point := len(digits) + e10; {
	case e10 >= 0: // an integer: the digits, then e10 zeros
		b = append(b, digits...)
		for ; e10 > 0; e10-- {
			b = append(b, '0')
		}
	case point > 0: // the point falls inside the digits
		b = append(b, digits[:point]...)
		b = append(b, '.')
		b = append(b, digits[point:]...)
	default: // 0.000ddd
		b = append(b, '0', '.')
		for ; point < 0; point++ {
			b = append(b, '0')
		}
		b = append(b, digits...)
	}
	return b
}

// put8Digits writes v < 10^8 into dst as eight digits, leading zeros
// included, with one 8-byte store. The value is split in SIMD-within-a-
// register lanes: two 4-digit halves in 32-bit lanes, four pairs in
// 16-bit lanes, eight digits in bytes, each split a multiply-shift that
// equals the division over the lane's range (x·10486>>20 = x/100 below
// 10^4, x·103>>10 = x/10 below 100).
func put8Digits(dst []byte, v uint32) {
	y := uint64(v/10000) | uint64(v%10000)<<32
	hi := (y * 10486 >> 20) & 0x0000007F_0000007F
	z := hi | (y-hi*100)<<16
	hi = (z * 103 >> 10) & 0x000F000F_000F000F
	binary.LittleEndian.PutUint64(dst, hi|(z-hi*10)<<8|0x30303030_30303030)
}

// writeSpMVReply encodes y into one buffer and writes it with its
// Content-Length in a single Write. Nothing is written when y cannot be
// encoded, so the caller can still answer with an error.
func writeSpMVReply(w http.ResponseWriter, y []float64) error {
	buf, err := appendSpMVReply(make([]byte, 0, spmvWireBytes(len(y))), y)
	if err != nil {
		return err
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(buf)))
	w.WriteHeader(http.StatusOK)
	// A failed write means the client is gone; there is no one to tell.
	_, _ = w.Write(buf)
	return nil
}
