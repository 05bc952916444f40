package partition

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"sparseorder/internal/gen"
	"sparseorder/internal/graph"
)

// matchingAblation is the matching ablation's input, a 100×100 grid cut
// into 16 parts, and its two variants.
var matchingAblation = []struct {
	name     string
	strategy matchingStrategy
	digest   string // SHA-256 of the part assignment as little-endian int64s
}{
	{"heavy-edge", heavyEdgeMatching, "0b16e8839e41a2f34e101d210184597a84c535e3f05d35eb5d5471484e3f6692"},
	{"random", randomMatching, "e970fd89369a37c23652cb569ae25abf6f40cbe4a590a75e097e30bdc17f8641"},
}

func matchingAblationGraph(tb testing.TB) *graph.Graph {
	tb.Helper()
	g, err := graph.FromMatrixSymmetrizedWorkers(gen.Grid2D(100, 100), 1)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// TestMatchingAblationDigests pins both variants' assignments to the ones
// the matching option produced when it was still exported, so the
// ablation keeps measuring what EXPERIMENTS.md reports.
func TestMatchingAblationDigests(t *testing.T) {
	g := matchingAblationGraph(t)
	for _, tc := range matchingAblation {
		part, err := kway(g, 16, Options{Seed: 1, matching: tc.strategy})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, p := range part {
			if err := binary.Write(h, binary.LittleEndian, int64(p)); err != nil {
				t.Fatal(err)
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.digest {
			t.Errorf("%s: digest %s, want %s", tc.name, got, tc.digest)
		}
	}
}

// BenchmarkAblationMatching compares heavy-edge and random matching in the
// partitioner's coarsening, reporting the resulting edge cut.
func BenchmarkAblationMatching(b *testing.B) {
	g := matchingAblationGraph(b)
	for _, tc := range matchingAblation {
		b.Run(tc.name, func(b *testing.B) {
			var cut int
			for i := 0; i < b.N; i++ {
				part, err := kway(g, 16, Options{Seed: 1, matching: tc.strategy})
				if err != nil {
					b.Fatal(err)
				}
				cut = EdgeCut(g, part)
			}
			b.ReportMetric(float64(cut), "edge-cut")
		})
	}
}
