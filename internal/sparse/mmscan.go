package sparse

import (
	"fmt"
	"math"
	"strconv"
)

// Allocation-light scanning for the Matrix Market header readers (mm.go)
// and the ingestion pipeline (ingest.go). scanEntry is the one entry-line
// grammar; the size line goes through nextField and atoiField. The
// line-at-a-time oracle in mm_oracle_test.go tokenizes entry lines on its
// own, with bytes.FieldsFunc and strconv, so the differential fuzz target
// (FuzzReadMatrixMarket) catches a tokenizer bug as well as chunking and
// assembly bugs.
//
// The scanner is deliberately stricter than the historical
// fmt.Sscanf/strings.Fields loop: size and entry lines must carry exactly
// the field count the header promises — trailing garbage that Sscanf and
// Fields silently ignored is now a parse error (see DESIGN.md, "Ingestion
// contract").

// isMMSpace reports whether c separates fields on a Matrix Market line.
// The set is the ASCII blanks strings.Fields splits on (the newline is
// included so callers can hand over ReadString output unstripped);
// multi-byte Unicode spaces are not separators, so a field containing one
// fails numeric parsing instead of being silently split.
func isMMSpace(c byte) bool {
	return c == ' ' || c-'\t' <= '\r'-'\t' // \t \n \v \f \r
}

// trimMMSpace removes leading and trailing blanks (including the \r of a
// CRLF line ending) from a line.
func trimMMSpace(s []byte) []byte {
	lo := 0
	for lo < len(s) && isMMSpace(s[lo]) {
		lo++
	}
	hi := len(s)
	for hi > lo && isMMSpace(s[hi-1]) {
		hi--
	}
	return s[lo:hi]
}

// nextField splits s into its first blank-delimited field and the
// remainder. An empty tok means s held no further field.
func nextField(s []byte) (tok, rest []byte) {
	lo := 0
	for lo < len(s) && isMMSpace(s[lo]) {
		lo++
	}
	hi := lo
	for hi < len(s) && !isMMSpace(s[hi]) {
		hi++
	}
	return s[lo:hi], s[hi:]
}

// atoiField parses a decimal integer field with an optional sign, exactly
// as strconv.Atoi does. Only the size line and index tokens that are not
// plain digits reach it.
func atoiField(tok []byte) (int, bool) {
	v, err := strconv.Atoi(string(tok))
	return v, err == nil
}

// parseSizeLine parses the coordinate-format size line "rows cols nnz",
// rejecting missing fields, non-integer fields and — unlike the Sscanf it
// replaces — trailing tokens.
func parseSizeLine(line []byte) (rows, cols, nnz int, err error) {
	var toks [3][]byte
	rest := line
	for k := 0; k < 3; k++ {
		toks[k], rest = nextField(rest)
		if len(toks[k]) == 0 {
			return 0, 0, 0, fmt.Errorf("sparse: malformed size line %q: want 3 fields", line)
		}
	}
	if tok, _ := nextField(rest); len(tok) != 0 {
		return 0, 0, 0, fmt.Errorf("sparse: malformed size line %q: trailing %q", line, tok)
	}
	var ok bool
	if rows, ok = atoiField(toks[0]); !ok {
		return 0, 0, 0, fmt.Errorf("sparse: malformed size line %q: bad row count %q", line, toks[0])
	}
	if cols, ok = atoiField(toks[1]); !ok {
		return 0, 0, 0, fmt.Errorf("sparse: malformed size line %q: bad column count %q", line, toks[1])
	}
	if nnz, ok = atoiField(toks[2]); !ok {
		return 0, 0, 0, fmt.Errorf("sparse: malformed size line %q: bad entry count %q", line, toks[2])
	}
	if rows < 0 || cols < 0 || nnz < 0 {
		return 0, 0, 0, fmt.Errorf("sparse: negative size line %d %d %d", rows, cols, nnz)
	}
	// COO stores int32 indices; reject dimensions it cannot represent
	// before any entry is read.
	if int64(rows) > math.MaxInt32 || int64(cols) > math.MaxInt32 {
		return 0, 0, 0, fmt.Errorf("sparse: matrix dimensions %dx%d exceed the int32 index range", rows, cols)
	}
	return rows, cols, nnz, nil
}

// scanEntry parses one raw coordinate entry line against the size line's
// dimensions in a single left-to-right pass, returning 0-based indices;
// entry=false with a nil error marks a blank or comment line. Pattern
// matrices carry exactly two fields and receive unit values; real and
// integer matrices carry exactly three. A line with extra fields is
// rejected — the historical reader silently ignored them. Skew-symmetric
// inputs must not carry diagonal entries (the format stores the strictly
// lower triangle), so i == j is rejected for them here rather than
// silently kept.
//
// Plain-digit indices and values of the shape [sign] digits [. digits]
// [e|E [sign] digits] with at most 19 digits are converted in place; any
// other index token goes to atoiField and any other value token to
// strconv.ParseFloat (inf, hex floats, longer mantissas, or a value
// DecimalToFloat64 declines), so every spelling strconv accepts is read
// bit-identically. Errors are checked in a fixed order — field count,
// indices, their ranges, the skew-symmetric diagonal, the value — and
// built only once a line has failed.
func scanEntry(line []byte, pattern, skew bool, rows, cols int) (i, j int, v float64, entry bool, err error) {
	p, n := 0, len(line)
	for p < n && isMMSpace(line[p]) {
		p++
	}
	if p == n || line[p] == '%' {
		return 0, 0, 0, false, nil
	}
	// Plain-digit indices are summed in place until they pass int32,
	// where none can be in range; any other token goes to atoiToken.
	i0 := p
	for p < n && line[p]-'0' <= 9 && i <= math.MaxInt32 {
		i = i*10 + int(line[p]-'0')
		p++
	}
	if p < n && !isMMSpace(line[p]) {
		i, p = atoiToken(line, i0)
	}
	for p < n && isMMSpace(line[p]) {
		p++
	}
	if p == n {
		return 0, 0, 0, false, malformedEntry(line, n)
	}
	j0 := p
	for p < n && line[p]-'0' <= 9 && j <= math.MaxInt32 {
		j = j*10 + int(line[p]-'0')
		p++
	}
	if p < n && !isMMSpace(line[p]) {
		j, p = atoiToken(line, j0)
	}
	// Validate the 1-based indices against the size line here, before they
	// are narrowed to int32: an out-of-range 64-bit index could otherwise
	// wrap back into range and silently corrupt the matrix. The error waits
	// for the field count, which the grammar checks first.
	bad := i < 1 || i > rows || j < 1 || j > cols || skew && i == j

	v, vok := 1.0, true
	if !pattern {
		for p < n && isMMSpace(line[p]) {
			p++
		}
		if p == n {
			return 0, 0, 0, false, malformedEntry(line, n)
		}
		// The mantissa accumulates into a uint64; the 19-digit cap below
		// sends the token to strconv before a wrapped value is used.
		v0 := p
		neg := false
		if line[p] == '+' || line[p] == '-' {
			neg = line[p] == '-'
			p++
		}
		var mant uint64
		digits, e10 := 0, 0
		for p < n && line[p]-'0' <= 9 {
			mant = mant*10 + uint64(line[p]-'0')
			digits++
			p++
		}
		if p < n && line[p] == '.' {
			p++
			for p < n && line[p]-'0' <= 9 {
				mant = mant*10 + uint64(line[p]-'0')
				digits++
				e10--
				p++
			}
		}
		plain := digits > 0 && digits <= 19
		if plain && p < n && (line[p] == 'e' || line[p] == 'E') {
			p++
			esign := 1
			if p < n && (line[p] == '+' || line[p] == '-') {
				if line[p] == '-' {
					esign = -1
				}
				p++
			}
			estart, ev := p, 0
			for p < n && line[p]-'0' <= 9 && ev <= 10000 {
				ev = ev*10 + int(line[p]-'0')
				p++
			}
			plain = p > estart
			e10 += esign * ev
		}
		if plain && (p == n || isMMSpace(line[p])) {
			v, plain = DecimalToFloat64(mant, e10, neg)
		} else {
			plain = false
		}
		if !plain {
			v, p, vok = parseFloatToken(line, v0)
		}
	}

	for p < n && isMMSpace(line[p]) {
		p++
	}
	if p < n {
		return 0, 0, 0, false, malformedEntry(line, p)
	}
	if bad || !vok {
		return 0, 0, 0, false, entryError(line, skew, rows, cols)
	}
	return i - 1, j - 1, v, true, nil
}

// malformedEntry reports an entry line with a field missing, or with a
// trailing token at line[p] when p is inside the line.
func malformedEntry(line []byte, p int) error {
	if p < len(line) {
		tok, _ := nextField(line[p:])
		return fmt.Errorf("sparse: malformed entry line %q: trailing %q", trimMMSpace(line), tok)
	}
	return fmt.Errorf("sparse: malformed entry line %q", trimMMSpace(line))
}

// parseFloatToken parses the value token starting at line[start] with
// strconv.ParseFloat, returning the position just past it.
func parseFloatToken(line []byte, start int) (v float64, end int, ok bool) {
	tok, _ := nextField(line[start:])
	v, err := strconv.ParseFloat(string(tok), 64)
	return v, start + len(tok), err == nil
}

// entryError diagnoses an entry line whose fields scanEntry counted but
// found fault with. It parses the fields again, off the hot path, and
// reports the first fault in the grammar's order.
func entryError(line []byte, skew bool, rows, cols int) error {
	iTok, rest := nextField(line)
	jTok, rest := nextField(rest)
	vTok, _ := nextField(rest)
	i, iok := atoiField(iTok)
	j, jok := atoiField(jTok)
	switch {
	case !iok:
		return fmt.Errorf("sparse: bad row index %q", iTok)
	case !jok:
		return fmt.Errorf("sparse: bad column index %q", jTok)
	case i < 1 || i > rows:
		return fmt.Errorf("sparse: row index %d outside 1..%d", i, rows)
	case j < 1 || j > cols:
		return fmt.Errorf("sparse: column index %d outside 1..%d", j, cols)
	case skew && i == j:
		return fmt.Errorf("sparse: skew-symmetric matrix stores an explicit diagonal entry (%d,%d)", i, j)
	}
	_, err := strconv.ParseFloat(string(vTok), 64)
	return fmt.Errorf("sparse: bad value %q: %w", vTok, err)
}

// atoiToken parses the index token starting at line[start] with
// atoiField, returning it, or 0, which no index range holds, when it is
// not an integer, and the position just past it.
func atoiToken(line []byte, start int) (v, end int) {
	tok, _ := nextField(line[start:])
	if v, ok := atoiField(tok); ok {
		return v, start + len(tok)
	}
	return 0, start + len(tok)
}
