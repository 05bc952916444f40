// Package machine models the eight multicore CPUs of the study's Table 2
// and predicts SpMV performance on them (see DESIGN.md, substitution 2).
//
// The model is deliberately simple but mechanism-faithful: an SpMV
// execution is decomposed into per-thread nonzero streams, and the time is
// the makespan of per-thread costs combining
//
//   - streamed matrix traffic (12 bytes per nonzero for a 32-bit column
//     index and a float64 value, plus per-row pointer/output traffic),
//   - x-vector traffic estimated from the number of distinct cache lines
//     each thread touches (cold misses — reduced by partitioning-based
//     orderings that shrink the per-thread column footprint) and a
//     capacity-miss term driven by the ratio of the per-thread working set
//     to its effective cache (reduced by bandwidth-reducing orderings),
//   - shared memory bandwidth with a bounded single-thread draw (so load
//     imbalance lengthens the tail), and
//   - a per-core instruction-throughput ceiling (lower on the ARM CPUs,
//     reflecting the paper's observation about their SpMV behaviour).
//
// Reordering changes exactly the inputs of this model — per-thread nonzero
// counts and column footprints — which is how the paper itself explains
// its results (locality + load balance), so the model reproduces the
// study's comparative behaviour without the original hardware.
package machine

import (
	"sparseorder/internal/sparse"
	"sparseorder/internal/spmv"
)

// Machine describes one CPU of the study (paper Table 2).
type Machine struct {
	Name        string
	CPU         string
	ISA         string
	Sockets     int
	Cores       int // total cores = threads used in the study
	FreqGHz     float64
	L1DPerCore  int64 // bytes
	L2PerCore   int64 // bytes
	L3PerSocket int64 // bytes
	BandwidthGB float64
	// NnzPerCycle is the per-core SpMV throughput ceiling in nonzeros per
	// clock cycle, folding in ILP and gather efficiency; the ARM systems
	// get a lower value per the paper's §4.3 discussion.
	NnzPerCycle float64
}

const (
	kib = int64(1) << 10
	mib = int64(1) << 20
)

// Table2 lists the eight machines of the study.
var Table2 = []Machine{
	{Name: "Skylake", CPU: "Intel Xeon Gold 6130", ISA: "x86-64", Sockets: 2, Cores: 32, FreqGHz: 3.6,
		L1DPerCore: 32 * kib, L2PerCore: 1024 * kib, L3PerSocket: 22 * mib, BandwidthGB: 256, NnzPerCycle: 0.5},
	{Name: "Ice Lake", CPU: "Intel Xeon Platinum 8360Y", ISA: "x86-64", Sockets: 2, Cores: 72, FreqGHz: 3.5,
		L1DPerCore: 48 * kib, L2PerCore: 1280 * kib, L3PerSocket: 54 * mib, BandwidthGB: 409.6, NnzPerCycle: 0.5},
	{Name: "Naples", CPU: "AMD Epyc 7601", ISA: "x86-64", Sockets: 2, Cores: 64, FreqGHz: 3.2,
		L1DPerCore: 32 * kib, L2PerCore: 512 * kib, L3PerSocket: 64 * mib, BandwidthGB: 342, NnzPerCycle: 0.5},
	{Name: "Rome", CPU: "AMD Epyc 7302P", ISA: "x86-64", Sockets: 1, Cores: 16, FreqGHz: 3.3,
		L1DPerCore: 32 * kib, L2PerCore: 512 * kib, L3PerSocket: 16 * mib, BandwidthGB: 204.8, NnzPerCycle: 0.5},
	{Name: "Milan A", CPU: "AMD Epyc 7413", ISA: "x86-64", Sockets: 2, Cores: 48, FreqGHz: 3.5,
		L1DPerCore: 32 * kib, L2PerCore: 512 * kib, L3PerSocket: 128 * mib, BandwidthGB: 409.6, NnzPerCycle: 0.5},
	{Name: "Milan B", CPU: "AMD Epyc 7763", ISA: "x86-64", Sockets: 2, Cores: 128, FreqGHz: 3.5,
		L1DPerCore: 32 * kib, L2PerCore: 512 * kib, L3PerSocket: 256 * mib, BandwidthGB: 409.6, NnzPerCycle: 0.5},
	{Name: "TX2", CPU: "Cavium TX2 CN9980", ISA: "ARMv8.1", Sockets: 2, Cores: 64, FreqGHz: 2.5,
		L1DPerCore: 32 * kib, L2PerCore: 256 * kib, L3PerSocket: 32 * mib, BandwidthGB: 342, NnzPerCycle: 0.22},
	{Name: "Hi1620", CPU: "HiSilicon Kunpeng 920-6426", ISA: "ARMv8.2", Sockets: 2, Cores: 128, FreqGHz: 2.6,
		L1DPerCore: 64 * kib, L2PerCore: 512 * kib, L3PerSocket: 64 * mib, BandwidthGB: 342, NnzPerCycle: 0.22},
}

// ByName returns the machine with the given name, or false.
func ByName(name string) (Machine, bool) {
	for _, m := range Table2 {
		if m.Name == name {
			return m, true
		}
	}
	return Machine{}, false
}

// TotalL3 returns the aggregate last-level cache in bytes.
func (m Machine) TotalL3() int64 { return int64(m.Sockets) * m.L3PerSocket }

// EffectiveCachePerThread returns the cache capacity available to one
// thread's x-vector working set: its private L2 plus its share of L3.
func (m Machine) EffectiveCachePerThread() int64 {
	return m.L2PerCore + m.TotalL3()/int64(m.Cores)
}

// Kernel selects one of the study's SpMV algorithms.
type Kernel int

// The two kernels of paper §3.1.
const (
	Kernel1D Kernel = iota // even row split
	Kernel2D               // even nonzero split
)

func (k Kernel) String() string {
	if k == Kernel1D {
		return "1D"
	}
	return "2D"
}

// Estimate is the model's prediction for one SpMV execution.
type Estimate struct {
	Seconds   float64
	Gflops    float64
	ThreadNNZ []int
	Imbalance float64 // max/mean of ThreadNNZ
}

const cacheLine = 64

// CacheScale shrinks every cache capacity used by the cost model by a
// constant factor. The synthetic collection is scaled down from the paper's
// matrix sizes (DESIGN.md, substitution 1), so shrinking the caches in
// proportion keeps the cache-pressure regime — and therefore the relative
// behaviour of the orderings and machines — faithful to the original study.
// Cross-machine cache ratios are unchanged. Use CacheScaleFor to pick the
// value matching a collection scale.
var CacheScale = 25.0

// CacheScaleFor returns the CacheScale that puts a collection of the given
// scale factor (gen.Scale.Factor()) in the same data-to-LLC pressure regime
// as the paper's 1e6-1e9-nonzero matrices: the paper's median matrix
// (~4e6 nnz, ~50 MB in CSR) is about half the median LLC, and scales
// quadratically-ish down with our linear size factor.
func CacheScaleFor(sizeFactor int) float64 {
	switch {
	case sizeFactor <= 1:
		return 400
	case sizeFactor <= 4:
		return 25
	default:
		return 10
	}
}

// EstimateSpMV predicts the SpMV time of matrix a on machine m with the
// given kernel, using m.Cores threads (as the study does).
func EstimateSpMV(a *sparse.CSR, m Machine, kernel Kernel) Estimate {
	t := m.Cores
	// Per-thread nonzero ranges.
	var kSplit []int
	switch kernel {
	case Kernel1D:
		rb := spmv.RowBlocks1D(a.Rows, t)
		kSplit = make([]int, t+1)
		for i := 0; i <= t; i++ {
			kSplit[i] = a.RowPtr[rb[i]]
		}
	default:
		kSplit = make([]int, t+1)
		for i := 0; i <= t; i++ {
			kSplit[i] = i * a.NNZ() / t
		}
	}

	threadNNZ, threadRows, distinct := threadFootprints(a, kSplit)

	// Warm-cache adjustment: when the full dataset fits in the aggregate
	// LLC, the "memory" traffic is served from cache at a multiple of the
	// DRAM bandwidth and capacity misses vanish (paper §4.1 notes 512 MiB
	// LLC on Milan B holds most test matrices).
	dataBytes := float64(12*a.NNZ() + 8*a.Rows + 8*a.Cols)
	fit := dataBytes / (float64(m.TotalL3()) / CacheScale)
	if fit > 1 {
		fit = 1
	}
	bwBytes := m.BandwidthGB * 1e9 * (4 - 3*fit) // 4x DRAM bandwidth when fully cached
	// Locality costs fade when the data fits in the LLC, but never to zero:
	// a cold x-line is still an L3-to-L2 transfer.
	capScale := 0.3 + 0.7*fit

	effLines := float64(m.EffectiveCachePerThread()) / CacheScale / cacheLine
	singleBW := 2.0 * bwBytes / float64(t) // one thread can draw ~2x its fair share

	var totalBytes, maxBytes, cpuMax float64
	cyclesPerNnz := 1 / m.NnzPerCycle
	for th := 0; th < t; th++ {
		stream := 12*float64(threadNNZ[th]) + 16*float64(threadRows[th])
		cold := float64(distinct[th]) * cacheLine
		capBytes := capacityBytes(threadNNZ[th], distinct[th], effLines, capScale)
		bytes := stream + cold*capScale + capBytes
		totalBytes += bytes
		if bytes > maxBytes {
			maxBytes = bytes
		}
		cpu := float64(threadNNZ[th]) * cyclesPerNnz / (m.FreqGHz * 1e9)
		if cpu > cpuMax {
			cpuMax = cpu
		}
	}

	timeBW := totalBytes / bwBytes
	avgBytes := totalBytes / float64(t)
	tail := 0.0
	if maxBytes > avgBytes {
		tail = (maxBytes - avgBytes) / singleBW
	}
	seconds := timeBW + tail
	if cpuMax > seconds {
		seconds = cpuMax
	}
	// A small fixed parallel-region cost; kept tiny so that, like in the
	// paper, the speedup ratios are dominated by traffic and balance.
	seconds += 1e-7

	total := 0
	maxNNZ := 0
	for _, n := range threadNNZ {
		total += n
		if n > maxNNZ {
			maxNNZ = n
		}
	}
	imb := 1.0
	if total > 0 {
		imb = float64(maxNNZ) * float64(t) / float64(total)
	}
	return Estimate{
		Seconds:   seconds,
		Gflops:    spmv.Gflops(a.NNZ(), seconds),
		ThreadNNZ: threadNNZ,
		Imbalance: imb,
	}
}

// threadFootprints is the model's one pass over a's nonzeros. For each
// thread's nonzero range [kSplit[th], kSplit[th+1]) it counts the
// nonzeros, the rows the range spans and the distinct x cache lines it
// reads (8 float64 entries per line).
func threadFootprints(a *sparse.CSR, kSplit []int) (threadNNZ, threadRows, distinct []int) {
	t := len(kSplit) - 1
	lineGen := make([]int32, (a.Cols+7)/8+1)
	for i := range lineGen {
		lineGen[i] = -1
	}
	threadNNZ = make([]int, t)
	threadRows = make([]int, t)
	distinct = make([]int, t)
	row := 0
	for th := 0; th < t; th++ {
		lo, hi := kSplit[th], kSplit[th+1]
		threadNNZ[th] = hi - lo
		for row < a.Rows && a.RowPtr[row+1] <= lo {
			row++
		}
		startRow := row
		for k := lo; k < hi; k++ {
			line := a.ColIdx[k] >> 3
			if lineGen[line] != int32(th) {
				lineGen[line] = int32(th)
				distinct[th]++
			}
		}
		for row < a.Rows && a.RowPtr[row+1] <= hi {
			row++
		}
		threadRows[th] = row - startRow + 1
	}
	return threadNNZ, threadRows, distinct
}

// capacityBytes is the model's capacity-miss term: the x traffic a thread
// re-fetches because its distinct lines exceed the effLines its cache
// holds. Its reads beyond the first touch of each line are reuses; the
// share of lines that does not fit misses once per 8 reuses. capScale
// fades the term when the data fits in the LLC.
func capacityBytes(nnz, distinct int, effLines, capScale float64) float64 {
	reuse := float64(nnz) - float64(distinct)
	if reuse < 0 {
		reuse = 0
	}
	capMissRate := 0.0
	if float64(distinct) > effLines {
		capMissRate = (float64(distinct) - effLines) / float64(distinct)
	}
	return reuse * capMissRate * capScale * cacheLine / 8 // one miss per 8 reuse accesses of an evicted line
}
