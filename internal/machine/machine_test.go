package machine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"sparseorder/internal/gen"
	"sparseorder/internal/metrics"
	"sparseorder/internal/sparse"
)

func TestTable2Complete(t *testing.T) {
	if len(Table2) != 8 {
		t.Fatalf("Table2 has %d machines, want 8", len(Table2))
	}
	names := map[string]bool{}
	for _, m := range Table2 {
		names[m.Name] = true
		if m.Cores <= 0 || m.BandwidthGB <= 0 || m.FreqGHz <= 0 || m.NnzPerCycle <= 0 {
			t.Errorf("%s has non-positive parameters", m.Name)
		}
		if m.TotalL3() != int64(m.Sockets)*m.L3PerSocket {
			t.Errorf("%s TotalL3 inconsistent", m.Name)
		}
		if m.EffectiveCachePerThread() <= m.L2PerCore {
			t.Errorf("%s effective cache should exceed private L2", m.Name)
		}
	}
	for _, want := range []string{"Skylake", "Ice Lake", "Naples", "Rome", "Milan A", "Milan B", "TX2", "Hi1620"} {
		if !names[want] {
			t.Errorf("missing machine %s", want)
		}
	}
}

func TestByName(t *testing.T) {
	if m, ok := ByName("Milan B"); !ok || m.Cores != 128 {
		t.Errorf("ByName(Milan B) = %+v, %v", m, ok)
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Error("ByName accepted unknown machine")
	}
}

func TestEstimatePositiveAndFinite(t *testing.T) {
	a := gen.Grid2D(40, 40)
	for _, m := range Table2 {
		for _, k := range []Kernel{Kernel1D, Kernel2D} {
			e := EstimateSpMV(a, m, k)
			if e.Seconds <= 0 || e.Gflops <= 0 {
				t.Errorf("%s/%s: seconds=%v gflops=%v", m.Name, k, e.Seconds, e.Gflops)
			}
			if len(e.ThreadNNZ) != m.Cores {
				t.Errorf("%s/%s: %d thread entries, want %d", m.Name, k, len(e.ThreadNNZ), m.Cores)
			}
			total := 0
			for _, n := range e.ThreadNNZ {
				total += n
			}
			if total != a.NNZ() {
				t.Errorf("%s/%s: thread nnz sums to %d, want %d", m.Name, k, total, a.NNZ())
			}
		}
	}
}

func TestEstimate2DAlwaysBalanced(t *testing.T) {
	// A matrix with one huge row: 1D imbalanced, 2D balanced by design.
	coo := sparse.NewCOO(1000, 1000, 6000)
	for j := 0; j < 3000; j++ {
		coo.Append(0, j%1000, 1)
	}
	for i := 1; i < 1000; i++ {
		coo.Append(i, (i*7)%1000, 1)
	}
	a, _ := coo.ToCSR()
	m, _ := ByName("Rome")
	e1 := EstimateSpMV(a, m, Kernel1D)
	e2 := EstimateSpMV(a, m, Kernel2D)
	if e1.Imbalance < 2 {
		t.Errorf("1D imbalance = %v, want large", e1.Imbalance)
	}
	if e2.Imbalance > 1.1 {
		t.Errorf("2D imbalance = %v, want ~1", e2.Imbalance)
	}
	if e2.Seconds >= e1.Seconds {
		t.Errorf("2D (%.3gs) should beat 1D (%.3gs) on a skewed matrix", e2.Seconds, e1.Seconds)
	}
}

func TestEstimateImbalanceMatchesMetrics(t *testing.T) {
	a := gen.RMAT(8, 8, 1)
	m, _ := ByName("Skylake")
	e := EstimateSpMV(a, m, Kernel1D)
	want := metrics.Imbalance1D(a, m.Cores)
	if diff := e.Imbalance - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("model imbalance %v != metrics %v", e.Imbalance, want)
	}
}

func TestLocalityMattersInModel(t *testing.T) {
	// A scrambled large grid must be predicted slower than the natural
	// banded order on every machine (worse x locality per thread).
	g := gen.Grid2D(160, 160)
	s := gen.Scramble(g, 3)
	for _, m := range Table2 {
		nat := EstimateSpMV(g, m, Kernel1D)
		scr := EstimateSpMV(s, m, Kernel1D)
		if scr.Seconds <= nat.Seconds {
			t.Errorf("%s: scrambled (%.3g) not slower than natural (%.3g)", m.Name, scr.Seconds, nat.Seconds)
		}
	}
}

func TestMoreCoresFaster(t *testing.T) {
	// Milan B (128 cores, 409 GB/s) must beat Rome (16 cores, 204 GB/s) on a
	// big balanced matrix.
	a := gen.Grid2D(200, 200)
	milanB, _ := ByName("Milan B")
	rome, _ := ByName("Rome")
	if EstimateSpMV(a, milanB, Kernel1D).Seconds >= EstimateSpMV(a, rome, Kernel1D).Seconds {
		t.Error("Milan B predicted slower than Rome on a balanced matrix")
	}
}

func TestARMSlowerPerCore(t *testing.T) {
	// Hi1620 matches Milan B's core count but has lower bandwidth and lower
	// per-core throughput; it must not be faster.
	a := gen.Grid2D(150, 150)
	milanB, _ := ByName("Milan B")
	hi, _ := ByName("Hi1620")
	if EstimateSpMV(a, hi, Kernel1D).Seconds < EstimateSpMV(a, milanB, Kernel1D).Seconds {
		t.Error("Hi1620 predicted faster than Milan B")
	}
}

func TestKernelString(t *testing.T) {
	if Kernel1D.String() != "1D" || Kernel2D.String() != "2D" {
		t.Error("kernel names")
	}
}

// TestEstimateDigestScaleTest pins every estimate the study's cost model
// makes for the ScaleTest collection (seed 42, the study's CacheScale for
// that scale) on the eight machines under both kernels: a SHA-256 over
// each Estimate's Seconds bits and ThreadNNZ. A change to the model that
// means to alter its output updates the digest.
func TestEstimateDigestScaleTest(t *testing.T) {
	saved := CacheScale
	CacheScale = CacheScaleFor(gen.ScaleTest.Factor())
	t.Cleanup(func() { CacheScale = saved })
	const want = "cdcf29bab84c4aff3663bc3e606674377b871688e63afa7dd391b6002bba7524"
	h := sha256.New()
	for _, m := range gen.Collection(gen.ScaleTest, 42) {
		for _, mach := range Table2 {
			for _, k := range []Kernel{Kernel1D, Kernel2D} {
				est := EstimateSpMV(m.A, mach, k)
				binary.Write(h, binary.LittleEndian, math.Float64bits(est.Seconds))
				for _, n := range est.ThreadNNZ {
					binary.Write(h, binary.LittleEndian, int64(n))
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("digest %s, want %s", got, want)
	}
}
