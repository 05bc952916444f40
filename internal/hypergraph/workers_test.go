package hypergraph

import (
	"testing"

	"sparseorder/internal/gen"
)

// TestKWayWorkersByteIdentical checks the parallel recursive bisection's
// determinism contract above the fork threshold (5184 vertices >
// forkMinVerts): the part assignment must be byte-identical at every
// worker count. Run under -race in CI this also exercises the forked
// branches for data races.
func TestKWayWorkersByteIdentical(t *testing.T) {
	h := ColumnNet(gen.Scramble(gen.Grid2D(72, 72), 5))
	if h.V <= forkMinVerts {
		t.Fatalf("test hypergraph has %d vertices, need > %d to fork", h.V, forkMinVerts)
	}
	want, err := KWay(h, 8, Options{Seed: 4, Workers: 1})
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	for _, w := range []int{2, 4, 7, 0} {
		got, err := KWay(h, 8, Options{Seed: 4, Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("workers=%d: partition differs from serial at vertex %d", w, v)
			}
		}
	}
}
