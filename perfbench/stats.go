package main

import (
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail read off fewer samples than this is one or two outliers, not a
// percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-th percentile (0 < q ≤ 100) of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank(len(s), q)]
}

// rank is the 0-based index of the nearest-rank q-th percentile of n
// sorted samples.
func rank(n int, q float64) int {
	// The epsilon keeps q·n/100 from rounding up past an exact rank, as
	// 99.9·10000/100 does in floating point.
	r := int(math.Ceil(q*float64(n)/100-1e-9)) - 1
	return min(max(r, 0), n-1)
}

// tailLadder is the percentiles tailPercentile picks from.
var tailLadder = []float64{99.9, 99, 90, 75}

// tailPercentile returns the highest percentile of ladder that has at least
// minBeyond samples above it among n samples, and false when none does.
func tailPercentile(n int, ladder []float64) (float64, bool) {
	for _, q := range ladder {
		if n-1-rank(n, q) >= minBeyond {
			return q, true
		}
	}
	return 0, false
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// opRecord is one timed op of a closed-loop workload.
type opRecord struct {
	pass    int // the (client, pass) this op belongs to, numbered globally
	kind    string
	seconds float64
}

// passSums sums each pass's op seconds of one kind and returns one sum per
// pass that has any op of that kind, in pass order. Only whole passes are
// ever recorded, so every sum covers the same set of ops.
func passSums(ops []opRecord, kind string) []float64 {
	sums := map[int]float64{}
	var order []int
	for _, op := range ops {
		if op.kind != kind {
			continue
		}
		if _, ok := sums[op.pass]; !ok {
			order = append(order, op.pass)
		}
		sums[op.pass] += op.seconds
	}
	out := make([]float64, len(order))
	for i, p := range order {
		out[i] = sums[p]
	}
	return out
}

// arrival is one scheduled request of an open-loop run and what happened
// to it. Latency counts from due, not from the send, so a request stuck
// behind a stall is charged the time it waited to be sent.
type arrival struct {
	due        time.Duration // offset from the schedule's start
	dispatched time.Duration // when the generator handed it to a connection's queue
	sent       time.Duration // when a connection started sending it
	done       time.Duration // when the response was read in full
}

// latency is the request's time from due to done.
func (a arrival) latency() time.Duration { return a.done - a.due }

// lateness is how far behind its schedule the generator itself ran when
// it dispatched the request.
func (a arrival) lateness() time.Duration { return a.dispatched - a.due }

// summary is the percentile rule applied to one set of latencies.
type summary struct {
	n       int
	p50     float64
	tailQ   float64 // 0 when no percentile above the median qualifies
	tail    float64
	hasTail bool
}

// latencyLadder caps latency_tail_ms at p90, so it means the same on every
// workload and every run length. On a shared host one stall of a hundred
// milliseconds sets a p99; serve.spmv_tail_ms applies the full tailLadder.
var latencyLadder = []float64{90, 75}

func summarize(xs []float64, ladder []float64) summary {
	s := summary{n: len(xs), p50: percentile(xs, 50)}
	if q, ok := tailPercentile(len(xs), ladder); ok {
		s.tailQ, s.tail, s.hasTail = q, percentile(xs, q), true
	}
	return s
}
