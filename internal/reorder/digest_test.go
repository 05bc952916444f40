package reorder

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"sparseorder/internal/gen"
)

// TestPermutationDigestsScaleTest pins the permutations of the partition-
// based orderings, and of RCM, AMD and Gray, over the whole ScaleTest
// collection: for each ordering it hashes every matrix's permutation, in
// collection order, as little-endian int64 entries into one SHA-256, at 1
// and 2 workers. The partition-based digests were recorded before the
// multilevel hot path was reworked (exact-size coarsening, branches
// induced from their parent, FM gains carried across passes), and that
// rework is byte-identical by contract, so any change here is a change of
// output. The HP digest was re-recorded twice: when HP's initial
// bisection stopped breaking its balance cap (TestBisectStarStaysBalanced),
// and when HP's FM pass stopped re-queueing pins whose gain a move left
// unchanged. The GP and ND digests were re-recorded once, when the
// partitioner's coarsening began stopping at a level that keeps more than
// 85% of its vertices (METIS 5's fraction) instead of 95%: GP moved on
// kron, kron_b, kron_c and kmer, ND on kron, kron_c, kmer and circuit. The
// RCM, AMD and Gray digests were recorded before RCM's root search moved
// to caller-owned buffers.
func TestPermutationDigestsScaleTest(t *testing.T) {
	if raceEnabled {
		t.Skip("seconds without -race, minutes with it; CI runs it in its own non-race step")
	}
	coll := gen.Collection(gen.ScaleTest, 42)
	cases := []struct {
		alg   Algorithm
		parts int
		want  string
	}{
		{GP, 8, "ccb17fed1fc88666738c54267c5c282d80c3fb59060e3daee36ef7756af6cd49"},
		{GP, 64, "db3379b4a2a5ebc7d6a74c1d19a604bdfc962c957fd08dc6f276d8fd8096ec49"},
		{GP, 128, "cc01627c53fb122c9fe5ae10bf885c7aa7f5a7f4d799df11b14862a291ba0449"},
		{ND, 0, "168cea67cd9300744cf292deb8ff8187c55d723d2f739f38754528aa7b8255d4"},
		{HP, 128, "7f06ece3d8771bffbd7390395e06c6c76db80e5ed64f1c9afa215668a10aca2a"},
		{RCM, 0, "f71ee78c479ebc33fc09c2b3878b8d0049f56ef3cad64675ca6346ac0460dadb"},
		{AMD, 0, "c3f6e4b56929b968292495e97767016a32ac11f64f6e8c8f3e0f5aefed2b5d96"},
		{Gray, 0, "5c92a6b2933120cd6e36aa9f79a3ebca043281889ffbfded7c9dd09eb7cb3b47"},
	}
	for _, c := range cases {
		for _, w := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/parts%d/workers%d", c.alg, c.parts, w), func(t *testing.T) {
				h := sha256.New()
				for _, m := range coll {
					_, p, err := Apply(c.alg, m.A, Options{Seed: 42, Workers: w, Parts: c.parts})
					if err != nil {
						t.Fatalf("%s: %v", m.Name, err)
					}
					for _, v := range p {
						if err := binary.Write(h, binary.LittleEndian, int64(v)); err != nil {
							t.Fatal(err)
						}
					}
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
					t.Errorf("digest %s, want %s", got, c.want)
				}
			})
		}
	}
}

// TestPermutationDigestsMeshSolve pins mesh-solve's inputs: the GP (default
// Parts) and ND permutations of the scrambled 32³ mesh, the matrix and
// seed the perfbench mesh-solve workload reorders, at 1 and 2 workers.
// A partitioner change that means to leave meshes alone keeps them.
func TestPermutationDigestsMeshSolve(t *testing.T) {
	if raceEnabled {
		t.Skip("seconds without -race, minutes with it; CI runs it in its own non-race step")
	}
	a := gen.Scramble(gen.Grid3D(32, 32, 32), 42)
	cases := []struct {
		alg  Algorithm
		want string
	}{
		{GP, "f624de64254c168604285e2db3e9a6f77368e0a457ec1a48ae6cc572a7aa8336"},
		{ND, "4f28fa4ff13eddf42eb04cbf94139d8af2a4427865d39a43602e7522063a2e1a"},
	}
	for _, c := range cases {
		for _, w := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers%d", c.alg, w), func(t *testing.T) {
				_, p, err := Apply(c.alg, a, Options{Seed: 42, Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				if got := permDigest(t, p); got != c.want {
					t.Errorf("digest %s, want %s", got, c.want)
				}
			})
		}
	}
}
