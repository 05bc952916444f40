package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"
)

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{39, 0, false}, // p75 would have 9 samples beyond it
		{40, 75, true},
		{56, 75, true}, // one study pass per client
		{99, 75, true},
		{100, 90, true}, // exactly 10 beyond p90
		{999, 90, true},
		{1000, 99, true},
		{4000, 99, true}, // a serve-mixed run
		{10000, 99.9, true},
	} {
		q, ok := tailPercentile(c.n, tailLadder)
		if q != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, q, ok, c.want, c.ok)
			continue
		}
		if ok {
			if beyond := c.n - 1 - rank(c.n, q); beyond < minBeyond {
				t.Errorf("n=%d p%v: %d samples beyond, want >= %d", c.n, q, beyond, minBeyond)
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted input
	}
	for q, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100, 1: 1} {
		if got := percentile(xs, q); got != want {
			t.Errorf("p%v = %v, want %v", q, got, want)
		}
	}
	s := summarize(xs, latencyLadder)
	if s.n != 100 || s.p50 != 50 || s.tailQ != 90 || s.tail != 90 || !s.hasTail {
		t.Errorf("summarize = %+v", s)
	}
	if s := summarize(make([]float64, 5000), latencyLadder); s.tailQ != 90 {
		t.Errorf("end-to-end tail of 5000 samples is p%v, want p90 (the cap)", s.tailQ)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestArrivalCountsFromDue(t *testing.T) {
	ms := time.Millisecond
	a := arrival{due: 10 * ms, dispatched: 11 * ms, sent: 30 * ms, done: 35 * ms}
	if a.latency() != 25*ms {
		t.Errorf("latency = %v, want 25ms (from due, not from send)", a.latency())
	}
	if a.lateness() != ms {
		t.Errorf("lateness = %v, want 1ms", a.lateness())
	}
}

// TestOpenLoopChargesConnectionWait sends three SpMV requests due at once
// to a server that takes 40ms each. They share one connection, so the
// later ones wait for it, and that wait is part of their latency.
func TestOpenLoopChargesConnectionWait(t *testing.T) {
	const serverTime = 40 * time.Millisecond
	reply := []byte(`{"y":[2]}`)
	var inflight, peak atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := inflight.Add(1)
		defer inflight.Add(-1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(serverTime)
		w.Write(reply)
	}))
	defer srv.Close()

	hot := []*hotMatrix{{key: "k0000000000000", bodies: [][]byte{[]byte(`{"x":[1]}`)}, first: [][]byte{reply}}}
	sched := []request{{due: 0}, {due: 0}, {due: 0}}
	outs := openLoop(srv.URL, sched, hot, nil)

	var slowest time.Duration
	for i, o := range outs {
		if o.err != nil {
			t.Fatalf("request %d: %v", i, o.err)
		}
		if o.done-o.sent > 3*serverTime {
			t.Errorf("request %d: send to reply %v, want about %v", i, o.done-o.sent, serverTime)
		}
		slowest = max(slowest, o.latency())
	}
	if slowest < 3*serverTime {
		t.Errorf("slowest latency %v: the request queued behind a busy connection was not charged its wait", slowest)
	}
	if p := peak.Load(); p != 1 {
		t.Errorf("%d SpMV requests in flight at once, want 1", p)
	}
}

func TestOpenLoopRejectsChangedReply(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"y":[2.0000000001]}`))
	}))
	defer srv.Close()
	hot := []*hotMatrix{{key: "k0000000000000", bodies: [][]byte{[]byte(`{"x":[1]}`)}, first: [][]byte{[]byte(`{"y":[2]}`)}}}
	outs := openLoop(srv.URL, []request{{due: 0}}, hot, nil)
	if outs[0].err == nil {
		t.Fatal("a reply that differs from the first reply to the same request was accepted")
	}
}

func TestParseStatCPU(t *testing.T) {
	// The command name holds spaces and parentheses; utime and stime are
	// fields 14 and 15 (250 and 50 ticks).
	stat := "4242 (my (odd) cmd) S 1 4242 4242 0 -1 4194560 500 0 0 0 250 50 0 0 20 0 3 0 100 1000000 200\n"
	got, err := parseStatCPU([]byte(stat))
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * time.Second; got != want {
		t.Errorf("cpu = %v, want %v", got, want)
	}
	for _, bad := range []string{"4242 no-parens S 1", "4242 (cmd) S 1 2 3", "4242 (cmd) S 1 2 3 4 5 6 7 8 9 10 x 50"} {
		if _, err := parseStatCPU([]byte(bad)); err == nil {
			t.Errorf("parseStatCPU(%q) accepted malformed input", bad)
		}
	}
	if _, err := procCPU("self"); err != nil {
		t.Errorf("reading this process's stat: %v", err)
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tperfbench\nVmPeak:\t  900000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t   10000 kB\n"
	got, err := parseStatusKB([]byte(status), "VmHWM")
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(12345 * 1024); got != want {
		t.Errorf("VmHWM = %d, want %d", got, want)
	}
	for _, bad := range []string{"Name:\tx\nVmRSS:\t1 kB\n", "VmHWM:\t12 MB\n", "VmHWM:\tlots kB\n"} {
		if _, err := parseStatusKB([]byte(bad), "VmHWM"); err == nil {
			t.Errorf("parseStatusKB(%q) accepted malformed input", bad)
		}
	}
}

// TestResetPeakRSS raises this process's peak RSS with a ballast, returns
// the ballast to the OS and checks that the reset brings the peak back
// down to the current RSS.
func TestResetPeakRSS(t *testing.T) {
	const ballastBytes = 64 << 20
	ballast := make([]byte, ballastBytes)
	for i := range ballast {
		ballast[i] = 1
	}
	debug.FreeOSMemory()
	peak, err := procPeakRSS("self")
	if err != nil {
		t.Fatal(err)
	}
	rss, err := procStatusKB("self", "VmRSS")
	if err != nil {
		t.Fatal(err)
	}
	if peak-rss < ballastBytes/2 {
		t.Skipf("the runtime kept the ballast (peak %d, rss %d): the reset cannot be observed", peak, rss)
	}
	if err := resetPeakRSS("self"); err != nil {
		t.Fatal(err)
	}
	after, err := procPeakRSS("self")
	if err != nil {
		t.Fatal(err)
	}
	if after > peak-ballastBytes/4 {
		t.Errorf("peak RSS after reset = %d, want about the current RSS %d (peak before %d)", after, rss, peak)
	}
}

func TestPassSums(t *testing.T) {
	ops := []opRecord{
		{pass: 0, kind: "reorder", seconds: 1},
		{pass: 0, kind: "solve", seconds: 0.5},
		{pass: 0, kind: "reorder", seconds: 2},
		{pass: 1, kind: "reorder", seconds: 4},
		{pass: 1, kind: "solve", seconds: 0.25},
		{pass: 2, kind: "solve", seconds: 1},
		{pass: 2, kind: "reorder", seconds: 5},
	}
	got := passSums(ops, "reorder")
	want := []float64{3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("passSums = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("passSums = %v, want %v", got, want)
		}
	}
	if m := median(got); m != 4 {
		t.Errorf("median over passes = %v, want 4", m)
	}
	if s := passSums(ops, "solve"); len(s) != 3 || s[0] != 0.5 || s[1] != 0.25 || s[2] != 1 {
		t.Errorf("solve sums = %v", s)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 7, Layer: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 7, Layer: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Op: 7, Layer: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Op: 7, Layer: "c", Start: 90, End: 120}, // runs past the parent
	}
	self := selfTimes(spans)[7]
	for l, want := range map[string]float64{"op": 40e-6, "a": 30e-6, "b": 30e-6, "c": 30e-6} {
		if math.Abs(self[l]-want) > 1e-12 {
			t.Errorf("self[%s] = %v, want %v", l, self[l], want)
		}
	}
	if name, share := dominant(self, 100e-6); name != "op" || math.Abs(share-0.4) > 1e-9 {
		t.Errorf("dominant = %s %.2f, want op 0.40", name, share)
	}
}

func TestParseProm(t *testing.T) {
	text := `# HELP x y
# TYPE sparseorder_server_phase_seconds histogram
sparseorder_server_phase_seconds_sum{route="spmv",phase="decode"} 1.5
sparseorder_server_phase_seconds_sum{route="spmv",phase="spmv"} 0.25
sparseorder_server_phase_seconds_sum{route="upload",phase="decode"} 9
sparseorder_server_cache_hits_total 42
odd{k="a \"quoted\", value"} 1e-3
`
	s, err := parseProm(text)
	if err != nil {
		t.Fatal(err)
	}
	if got := promSum(s, "sparseorder_server_phase_seconds_sum", map[string]string{"route": "spmv"}); got != 1.75 {
		t.Errorf("spmv phase sum = %v, want 1.75", got)
	}
	if got := promSum(s, "sparseorder_server_cache_hits_total", nil); got != 42 {
		t.Errorf("hits = %v, want 42", got)
	}
	if got := promSum(s, "odd", map[string]string{"k": `a "quoted", value`}); got != 1e-3 {
		t.Errorf("escaped label: %v", got)
	}
	if _, err := parseProm("broken{k=\"v\" 1\n"); err == nil {
		t.Error("unterminated labels accepted")
	}
}
