package loadgen

import (
	"math"
	"sort"
	"strconv"

	"sparseorder/internal/obs"
)

// histSnapshot is one histogram series reconstructed from a scrape:
// cumulative bucket counts by upper bound, plus count and sum.
type histSnapshot struct {
	bounds []float64 // ascending; last is +Inf
	cum    []uint64  // cumulative counts, parallel to bounds
	count  uint64
	sum    float64
}

// matches reports whether labels carries every key/value in want
// (ignoring the bucket's le label).
func matches(labels, want map[string]string) bool {
	for k, v := range want {
		if labels[k] != v {
			return false
		}
	}
	return true
}

// extractHist reconstructs the histogram series of family with the given
// labels from parsed samples. Missing series yield ok=false.
func extractHist(samples []obs.Sample, family string, want map[string]string) (histSnapshot, bool) {
	var h histSnapshot
	type bkt struct {
		le  float64
		cum uint64
	}
	var buckets []bkt
	seen := false
	for _, s := range samples {
		switch s.Name {
		case family + "_bucket":
			if !matches(s.Labels, want) {
				continue
			}
			le, err := strconv.ParseFloat(s.Labels["le"], 64)
			if err != nil {
				continue
			}
			buckets = append(buckets, bkt{le: le, cum: uint64(s.Value)})
			seen = true
		case family + "_count":
			if matches(s.Labels, want) {
				h.count = uint64(s.Value)
				seen = true
			}
		case family + "_sum":
			if matches(s.Labels, want) {
				h.sum = s.Value
				seen = true
			}
		}
	}
	if !seen {
		return h, false
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	for _, b := range buckets {
		h.bounds = append(h.bounds, b.le)
		h.cum = append(h.cum, b.cum)
	}
	return h, true
}

// sub returns the histogram delta h − prev (prev may be the zero
// snapshot): the traffic observed between two scrapes. Counters only ever
// grow, so the delta is itself a valid histogram.
func (h histSnapshot) sub(prev histSnapshot) histSnapshot {
	out := histSnapshot{
		bounds: h.bounds,
		cum:    append([]uint64(nil), h.cum...),
		count:  h.count - prev.count,
		sum:    h.sum - prev.sum,
	}
	for i := range out.cum {
		if i < len(prev.cum) {
			out.cum[i] -= prev.cum[i]
		}
	}
	return out
}

// quantile estimates the q-quantile (0 < q ≤ 1) from the bucket counts
// with Prometheus-style linear interpolation inside the landing bucket.
// The true value lies in (lower bound of the landing bucket, its upper
// bound]; both are returned so a cross-check can use the hard bracket
// rather than the interpolated point.
func (h histSnapshot) quantile(q float64) (est, lo, hi float64) {
	if h.count == 0 || len(h.bounds) == 0 {
		return 0, 0, 0
	}
	rank := q * float64(h.count)
	idx := sort.Search(len(h.cum), func(i int) bool { return float64(h.cum[i]) >= rank })
	if idx == len(h.cum) {
		idx = len(h.cum) - 1
	}
	hi = h.bounds[idx]
	lo = 0
	prevCum := uint64(0)
	if idx > 0 {
		lo = h.bounds[idx-1]
		prevCum = h.cum[idx-1]
	}
	if math.IsInf(hi, 1) {
		// Open-ended landing bucket: no upper bracket; report the lower
		// bound as the estimate.
		return lo, lo, math.Inf(1)
	}
	inBucket := float64(h.cum[idx] - prevCum)
	if inBucket <= 0 {
		return hi, lo, hi
	}
	est = lo + (hi-lo)*(rank-float64(prevCum))/inBucket
	return est, lo, hi
}
