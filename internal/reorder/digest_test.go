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
// based orderings over the whole ScaleTest collection: for each ordering
// it hashes every matrix's permutation, in collection order, as
// little-endian int64 entries into one SHA-256, at 1 and 2 workers. The
// digests were recorded before the multilevel hot path was reworked
// (exact-size coarsening, branches induced from their parent, FM gains
// carried across passes), and that rework is byte-identical by contract,
// so any change here is a change of output. The HP digest was re-recorded
// once, when HP's initial bisection stopped breaking its balance cap
// (TestBisectStarStaysBalanced).
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
		{GP, 8, "7c6bd95a6861699f3b6203a70755415320a8f2834c8eb81976e932683351bcc9"},
		{GP, 64, "89ccebc862c2eeae4b0f20c4c71ccbfac23ea1e624843fdcfe6104c35fe2b215"},
		{GP, 128, "05813668ee55b5d357d66be7ba6cea25866fefe22ba62a3aca870f2f4b520408"},
		{ND, 0, "b93d747060c33ed20120e63378c8170dedb6ec29b926b6e4d8ed458e77513dec"},
		{HP, 128, "a7ba454cb50406fd297fc7c7f9947fd59d24a05927dce300301f92884dd2eee4"},
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
