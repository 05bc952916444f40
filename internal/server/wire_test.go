package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// spmvRequest and spmvResponse are the POST /spmv/{key} documents as
// encoding/json types: the reference the wire codec is compared against.
type spmvRequest struct {
	X []float64 `json:"x"`
}

type spmvResponse struct {
	Y []float64 `json:"y"`
}

// stdlibReply is the reference the wire encoder must reproduce: the bytes
// json.NewEncoder writes for spmvResponse{Y: y}.
func stdlibReply(t testing.TB, y []float64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(spmvResponse{Y: y}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeSpMVBody is the decoder with no entry bound, for tests that feed
// it bodies without a matrix behind them.
func decodeSpMVBody(body []byte, x []float64) ([]float64, error) {
	return decodeSpMVBodyUpTo(body, x, math.MaxInt)
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSpMVBodyGrammar pins every edge of the strict {"x":[…]} grammar. An
// accepted body must decode bitwise as json.Unmarshal does. The rejected
// rows marked stdlib are the bodies the encoding/json decoder used to
// accept on this route; DESIGN.md lists them.
func TestSpMVBodyGrammar(t *testing.T) {
	cases := []struct {
		body   string
		ok     bool
		stdlib bool // the encoding/json Decoder accepted it (rejected rows only)
	}{
		// Accepted.
		{`{"x":[1,2.5,-3]}`, true, false},
		{`{"x":[]}`, true, false},
		{" \t\r\n{ \t\r\n\"x\" \t\r\n: \t\r\n[ \t\r\n1 \t\r\n, \t\r\n2 \t\r\n] \t\r\n} \t\r\n", true, false},
		{`{"x":[0,-0,0.0,-0.0,0e5,-0E-5]}`, true, false},
		{`{"x":[1e5,1E5,1e+5,1e-5,1.5e005,-2.25E-0]}`, true, false},
		{`{"x":[5e-324,4.9406564584124654e-324,2.2250738585072014e-308]}`, true, false},
		{`{"x":[1.7976931348623157e308,-1.7976931348623157e308]}`, true, false},
		{`{"x":[1e-400,-1e-400,1e-99999999999999999999,0e99999999999999999999]}`, true, false},
		{`{"x":[0.000000000000000000000000000001,100000000000000000000000000000]}`, true, false},
		{`{"x":[12345678901234567890,1.2345678901234567890123,98765432109876543210e-30]}`, true, false},
		{`{"x":[9007199254740993,0.1,0.7,123456789012345678]}`, true, false},
		// Members.
		{`{"x":[1],"y":2}`, false, true},
		{`{"y":2,"x":[1]}`, false, true},
		{`{"X":[1]}`, false, true},
		{`{"\u0078":[1]}`, false, true},
		{`{"x":[1],"x":[2]}`, false, true},
		{`{"x":null}`, false, true},
		{`{"x":[null]}`, false, true},
		{`{"x":[1,null]}`, false, true},
		{`null`, false, true},
		{`{}`, false, true},
		{`{"x":"1"}`, false, false},
		{`{"x":["1"]}`, false, false},
		{`{"x":1}`, false, false},
		{`[1]`, false, false},
		{``, false, false},
		{`   `, false, false},
		// Trailing bytes.
		{`{"x":[1]} x`, false, true},
		{`{"x":[1]}{}`, false, true},
		{`{"x":[1]}]`, false, true},
		// Numbers.
		{`{"x":[NaN]}`, false, false},
		{`{"x":[Infinity]}`, false, false},
		{`{"x":[-Infinity]}`, false, false},
		{`{"x":[+1]}`, false, false},
		{`{"x":[01]}`, false, false},
		{`{"x":[-01]}`, false, false},
		{`{"x":[00]}`, false, false},
		{`{"x":[1.]}`, false, false},
		{`{"x":[.5]}`, false, false},
		{`{"x":[-]}`, false, false},
		{`{"x":[1e]}`, false, false},
		{`{"x":[1e+]}`, false, false},
		{`{"x":[1.5e-]}`, false, false},
		{`{"x":[0x10]}`, false, false},
		{`{"x":[1_000]}`, false, false},
		{`{"x":[1e400]}`, false, false},
		{`{"x":[-1e400]}`, false, false},
		{`{"x":[1e99999999999999999999]}`, false, false},
		{`{"x":[` + strings.Repeat("9", 400) + `]}`, false, false},
		// Array and object framing.
		{`{"x":[1,]}`, false, false},
		{`{"x":[,1]}`, false, false},
		{`{"x":[1 2]}`, false, false},
		{`{"x":[1]`, false, false},
		{`{"x":[1]]}`, false, false},
		{`{"x":[1}`, false, false},
		{`{"x" [1]}`, false, false},
		{`{x:[1]}`, false, false},
		{"{\"x\":[1,\v2]}", false, false},
		{"{\"x\":[1,\f2]}", false, false},
		{"\ufeff{\"x\":[1]}", false, false},
	}
	for _, tc := range cases {
		got, err := decodeSpMVBody([]byte(tc.body), nil)
		var ref spmvRequest
		stdlibErr := json.NewDecoder(strings.NewReader(tc.body)).Decode(&ref)
		if tc.ok {
			if err != nil {
				t.Errorf("%q rejected: %v", tc.body, err)
				continue
			}
			var strict spmvRequest
			if err := json.Unmarshal([]byte(tc.body), &strict); err != nil {
				t.Errorf("%q accepted, but json.Unmarshal rejects it: %v", tc.body, err)
				continue
			}
			if !sameBits(got, strict.X) {
				t.Errorf("%q decoded to %v, json.Unmarshal to %v", tc.body, got, strict.X)
			}
			continue
		}
		if err == nil {
			t.Errorf("%q accepted as %v, want a rejection", tc.body, got)
			continue
		}
		if accepted := stdlibErr == nil; accepted != tc.stdlib {
			t.Errorf("%q: encoding/json Decoder accepts = %v, table says %v", tc.body, accepted, tc.stdlib)
		}
	}
}

// randomFloats draws finite float64s from uniformly random bit patterns,
// N(0,1) and the boundary values of encoding/json's float spelling.
func randomFloats(rng *rand.Rand, n int) []float64 {
	edges := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308,
		1e-6, math.Nextafter(1e-6, 0), 1e-7, -1e-6, -1e-7,
		1e20, 1e21, math.Nextafter(1e21, 0), -1e21, -1e20,
		math.MaxFloat64, -math.MaxFloat64, 0.1, 1.0 / 3, 123456789012345680000}
	xs := make([]float64, 0, n)
	xs = append(xs, edges...)
	for len(xs) < n {
		var v float64
		switch rng.Intn(3) {
		case 0:
			v = math.Float64frombits(rng.Uint64())
		case 1:
			v = rng.NormFloat64()
		default:
			v = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		}
		if !math.IsInf(v, 0) && !math.IsNaN(v) {
			xs = append(xs, v)
		}
	}
	return xs
}

// TestSpMVCodecMatchesEncodingJSON: over 200k floats, decoding
// json.Marshal's body gives the same bits, and the reply encoder writes
// json.NewEncoder's exact bytes, no number longer than maxJSONFloatLen.
func TestSpMVCodecMatchesEncodingJSON(t *testing.T) {
	xs := randomFloats(rand.New(rand.NewSource(7)), 200000)
	body, err := json.Marshal(spmvRequest{X: xs})
	if err != nil {
		t.Fatal(err)
	}
	if got := int64(len(body)); got > spmvWireBytes(len(xs)) {
		t.Errorf("body is %d bytes, spmvWireBytes bounds it at %d", got, spmvWireBytes(len(xs)))
	}
	got, err := decodeSpMVBody(body, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if math.Float64bits(got[i]) != math.Float64bits(xs[i]) {
			t.Fatalf("x[%d] = %v (%x), want %v (%x)", i, got[i], math.Float64bits(got[i]), xs[i], math.Float64bits(xs[i]))
		}
	}
	reply, err := appendSpMVReply(nil, xs)
	if err != nil {
		t.Fatal(err)
	}
	if want := stdlibReply(t, xs); !bytes.Equal(reply, want) {
		i := 0
		for i < len(reply) && i < len(want) && reply[i] == want[i] {
			i++
		}
		t.Fatalf("reply differs from encoding/json at byte %d: %.60q vs %.60q", i, reply[i:], want[i:])
	}
	for _, v := range xs {
		if n := len(appendJSONFloat(nil, v)); n > maxJSONFloatLen {
			t.Fatalf("%v spells in %d bytes, over maxJSONFloatLen", v, n)
		}
	}
	if n := len(appendJSONFloat(nil, -0.0000012345678901234567)); n != maxJSONFloatLen {
		t.Errorf("the longest spelling takes %d bytes, maxJSONFloatLen says %d", n, maxJSONFloatLen)
	}
	if reply, err := appendSpMVReply(nil, []float64{}); err != nil || !bytes.Equal(reply, stdlibReply(t, []float64{})) {
		t.Errorf("empty y: %q, %v", reply, err)
	}
}

// TestSpMVReplyRejectsNonFinite: the first non-finite row is named.
func TestSpMVReplyRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		_, err := appendSpMVReply(nil, []float64{1, 2, v, v})
		if err == nil || !strings.Contains(err.Error(), "y[2]") {
			t.Errorf("y with %v at row 2: err = %v, want one naming y[2]", v, err)
		}
	}
}

// TestReadBodyPresizeBounded: a Content-Length far beyond the presize
// bound does not size the buffer, a body longer than the bound still
// arrives whole, and a body over the cap is a MaxBytesError.
func TestReadBodyPresizeBounded(t *testing.T) {
	body := bytes.Repeat([]byte("7"), 3000)
	r := httptest.NewRequest(http.MethodPost, "/spmv/k", bytes.NewReader(body[:10]))
	r.ContentLength = 1 << 30
	got, err := readBody(httptest.NewRecorder(), r, 256<<20, 100)
	if err != nil || len(got) != 10 {
		t.Fatalf("read %d bytes, err %v", len(got), err)
	}
	if cap(got) > 100+bytes.MinRead {
		t.Errorf("a forged Content-Length sized the buffer to %d bytes", cap(got))
	}

	r = httptest.NewRequest(http.MethodPost, "/spmv/k", bytes.NewReader(body))
	got, err = readBody(httptest.NewRecorder(), r, 256<<20, 100)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("a body longer than the presize bound read back as %d bytes, err %v", len(got), err)
	}

	r = httptest.NewRequest(http.MethodPost, "/spmv/k", bytes.NewReader(body))
	if _, err := readBody(httptest.NewRecorder(), r, 1000, 100); err == nil {
		t.Fatal("a body over the cap was read")
	} else if _, ok := err.(*http.MaxBytesError); !ok {
		t.Fatalf("over-cap error %T (%v), want *http.MaxBytesError", err, err)
	}
}

// FuzzSpMVBody drives arbitrary bytes through the strict body decoder. It
// must never panic; whatever it accepts, json.Unmarshal must accept with
// bitwise-equal x; and re-encoding that x with the reply encoder must give
// json.NewEncoder's bytes.
func FuzzSpMVBody(f *testing.F) {
	for _, s := range []string{`{"x":[1,2,3]}`, `{"x":[]}`, `{"x":[1e400]}`, `{"x":[1]} `} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		x, err := decodeSpMVBody(body, nil)
		if err != nil {
			return
		}
		var ref spmvRequest
		if err := json.Unmarshal(body, &ref); err != nil {
			t.Fatalf("accepted %q, json.Unmarshal rejects it: %v", body, err)
		}
		if !sameBits(x, ref.X) {
			t.Fatalf("%q decoded to %v, json.Unmarshal to %v", body, x, ref.X)
		}
		reply, err := appendSpMVReply(nil, x)
		if err != nil {
			t.Fatalf("re-encoding %v: %v", x, err)
		}
		if want := stdlibReply(t, x); !bytes.Equal(reply, want) {
			t.Fatalf("re-encoded %q, encoding/json writes %q", reply, want)
		}
	})
}

// appendJSONFloatOracle is encoding/json's float spelling as the standard
// library writes it: strconv's shortest digits in 'f' form, or in 'e' form
// below 1e-6 and from 1e21 up with e-07 cut to e-7. appendJSONFloat must
// reproduce it byte for byte.
func appendJSONFloatOracle(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// TestAppendJSONFloatSpelling holds the reply's float spelling to the
// strconv oracle where the form changes: around 1e-6 and 1e21, at every
// power of ten and its neighbours, on one- to three-digit exponents, on
// integers, halves and eighths, and on random bit patterns.
func TestAppendJSONFloatSpelling(t *testing.T) {
	var got, want []byte
	check := func(v float64) {
		t.Helper()
		for _, w := range []float64{v, -v} {
			got, want = appendJSONFloat(got[:0], w), appendJSONFloatOracle(want[:0], w)
			if !bytes.Equal(got, want) {
				t.Fatalf("%v [bits %#x] spells %s, strconv %s", w, math.Float64bits(w), got, want)
			}
		}
	}
	for _, v := range []float64{0, 1, 0.5, 1e-6, 1e-7, 1e21, 1e20, 1e-10, 1e100, 1e-100,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 0x1p-1022, 123456789012345678} {
		check(v)
		check(math.Nextafter(v, 0))
		check(math.Nextafter(v, math.MaxFloat64))
	}
	for k := -330; k <= 310; k++ {
		v, err := strconv.ParseFloat(fmt.Sprintf("1e%d", k), 64)
		if err != nil || v == 0 || math.IsInf(v, 0) {
			continue
		}
		check(v)
		check(math.Nextafter(v, 0))
		check(math.Nextafter(v, math.MaxFloat64))
	}
	for i := 0; i < 100000; i++ {
		check(float64(i))
		check(float64(i) / 8)
		check(float64(i) * 1e17)
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 200000; i++ {
		if v := math.Float64frombits(rng.Uint64()); !math.IsInf(v, 0) && !math.IsNaN(v) {
			check(v)
		}
	}
}

// FuzzShortestDecimal drives float64 bit patterns through the reply's
// float spelling: every finite value spells as the strconv oracle does,
// within maxJSONFloatLen bytes.
func FuzzShortestDecimal(f *testing.F) {
	for _, v := range []float64{0, 1, -2.5, 1e-6, 1e21, 5e-324, math.MaxFloat64, 0.1} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return
		}
		got, want := appendJSONFloat(nil, v), appendJSONFloatOracle(nil, v)
		if !bytes.Equal(got, want) {
			t.Fatalf("%#x spells %s, strconv %s", bits, got, want)
		}
		if len(got) > maxJSONFloatLen {
			t.Fatalf("%#x spells in %d bytes, over maxJSONFloatLen", bits, len(got))
		}
	})
}

// discardWriter is a ResponseWriter that drops the body.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

// BenchmarkSpMVReply times the encode phase alone, writeSpMVReply on a y
// of N(0, 3) values, and reports its cost per float.
func BenchmarkSpMVReply(b *testing.B) {
	for _, n := range []int{2000, 20000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n)))
			y := make([]float64, n)
			for i := range y {
				y[i] = 3 * rng.NormFloat64()
			}
			w := &discardWriter{h: http.Header{}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := writeSpMVReply(w, y); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/float")
		})
	}
}
