package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Errorf("GeoMean(2,8) = %v, want 4", g)
	}
	if g := GeoMean([]float64{1, 1, 1}); math.Abs(g-1) > 1e-12 {
		t.Errorf("GeoMean(1,1,1) = %v", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Errorf("GeoMean(nil) = %v, want 0", g)
	}
	// Non-positive entries are skipped.
	if g := GeoMean([]float64{-1, 0, 4}); math.Abs(g-4) > 1e-12 {
		t.Errorf("GeoMean with junk = %v, want 4", g)
	}
}

func TestGeoMeanScaleInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = rng.Float64() + 0.1
		}
		g1 := GeoMean(xs)
		for i := range xs {
			xs[i] *= 3
		}
		g2 := GeoMean(xs)
		return math.Abs(g2-3*g1) < 1e-9*g2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if q := Quantile(xs, 0); q != 1 {
		t.Errorf("q0 = %v", q)
	}
	if q := Quantile(xs, 1); q != 4 {
		t.Errorf("q1 = %v", q)
	}
	if q := Quantile(xs, 0.5); math.Abs(q-2.5) > 1e-12 {
		t.Errorf("median = %v, want 2.5", q)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
	// Quantile must not mutate its input.
	if xs[0] != 4 {
		t.Error("Quantile sorted the caller's slice")
	}
}

func TestBoxStats(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	b := BoxStats(xs)
	if b.Median != 5 || b.Min != 1 || b.Max != 9 || b.N != 9 {
		t.Errorf("box = %+v", b)
	}
	if b.Q1 != 3 || b.Q3 != 7 {
		t.Errorf("quartiles = %v, %v, want 3 and 7", b.Q1, b.Q3)
	}
	if b.Outliers != 0 || b.WhiskerLo != 1 || b.WhiskerHi != 9 {
		t.Errorf("whiskers/outliers: %+v", b)
	}
}

func TestBoxStatsOutliers(t *testing.T) {
	xs := []float64{1, 2, 2, 3, 3, 3, 4, 4, 5, 100}
	b := BoxStats(xs)
	if b.Outliers == 0 {
		t.Error("100 should be flagged as an outlier")
	}
	if b.WhiskerHi >= 100 {
		t.Errorf("whisker %v should exclude the outlier", b.WhiskerHi)
	}
}

func TestBoxStatsEmpty(t *testing.T) {
	b := BoxStats(nil)
	if b.N != 0 || !math.IsNaN(b.Median) {
		t.Errorf("empty box = %+v", b)
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 2})
	if lo != -1 || hi != 7 {
		t.Errorf("minmax = %v, %v", lo, hi)
	}
	lo, hi = MinMax(nil)
	if !math.IsNaN(lo) || !math.IsNaN(hi) {
		t.Error("empty minmax should be NaN")
	}
}

func TestQuantileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 20)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := Quantile(xs, q)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
