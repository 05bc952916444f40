// Package prng holds the random streams of the multilevel partitioners:
// the rule that derives each recursion branch's seed from its parent's,
// and a pooled math/rand source that reseeds without math/rand's serial
// setup loop while producing math/rand's stream exactly, so every
// partition stays byte-identical to one drawn from rand.NewSource.
package prng

import (
	"math/rand"
	"sync"
)

// Branches returns the seeds of a recursion node's left and right
// branches. GP, ND and HP derive them the same way, so a node's seed
// depends only on its position in the recursion, never on scheduling.
func Branches(seed int64) (left, right int64) {
	return seed*2654435761 + 1, seed*2654435761 + 2
}

// The shape of math/rand's additive lagged Fibonacci generator.
const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1
	// lehmerA is the multiplier of the Lehmer generator math/rand's
	// seeding draws from: x ← lehmerA·x mod (2³¹−1).
	lehmerA = 48271
	// cookedSeed seeds the rand.NewSource whose first rngLen outputs
	// recover math/rand's cooked table at init.
	cookedSeed = 1
)

var (
	// powers[i] holds lehmerA^k mod (2³¹−1) for the three Lehmer steps
	// k = 21+3i, 22+3i, 23+3i that math/rand's Seed mixes into word i of
	// its state (it discards the first 20 steps).
	powers [rngLen][3]uint64
	// cooked is math/rand's rngCooked table, the state every seed is
	// XORed with, recovered at init from math/rand's own stream.
	cooked [rngLen]int64
)

func init() {
	p := uint64(1)
	for k := 1; k <= 20+3*rngLen; k++ {
		p = mulMod(p, lehmerA)
		if k > 20 {
			powers[(k-21)/3][(k-21)%3] = p
		}
	}
	cooked = recoverCooked()
}

// recoverCooked reads the first rngLen outputs of rand.NewSource and
// solves for the state its Seed built. Output j is vec[feed]+vec[tap]
// with feed = 333−j mod rngLen and tap = 606−j, and the tap word was
// already overwritten by output j−273 once it lies at or below 333, so
// every word follows from at most two outputs. XORing out the Lehmer
// words of the seed leaves the cooked table.
func recoverCooked() [rngLen]int64 {
	src := rand.NewSource(cookedSeed).(rand.Source64)
	var out, vec [rngLen]int64
	for j := range out {
		out[j] = int64(src.Uint64())
	}
	for j := rngTap; j < rngLen; j++ {
		// Words 0…60 (j ≤ 333) and 334…606 (j ≥ 334), fed while their
		// tap partner holds output j−273.
		vec[(rngLen-rngTap-1-j+rngLen)%rngLen] = out[j] - out[j-rngTap]
	}
	for j := 0; j < rngTap; j++ {
		// Words 61…333, whose tap partner 606−j was recovered above.
		vec[rngLen-rngTap-1-j] = out[j] - vec[rngLen-1-j]
	}
	// Called before cooked is set, Seed leaves the bare Lehmer words.
	var lehmer Source
	lehmer.Seed(cookedSeed)
	var c [rngLen]int64
	for i := range c {
		c[i] = vec[i] ^ lehmer.vec[i]
	}
	return c
}

// mulMod returns a·b mod (2³¹−1) for a, b < 2³¹, folding the product's
// high bits onto its low ones (2³¹ ≡ 1).
func mulMod(a, b uint64) uint64 {
	z := a * b
	z = z&int32max + z>>31
	z = z&int32max + z>>31
	if z >= int32max {
		z -= int32max
	}
	return z
}

// normSeed maps a seed to the Lehmer start value math/rand's Seed uses.
func normSeed(seed int64) uint64 {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// Source is math/rand's generator with a cheaper Seed: each Lehmer word
// is one multiplication by a precomputed power instead of a step of a
// serial loop. Its Int63 and Uint64 streams equal rand.NewSource's for
// every seed. A Source is not safe for concurrent use.
type Source struct {
	tap, feed int
	vec       [rngLen]int64
}

// Seed resets the source to the state rand.NewSource(seed) starts in.
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	x := normSeed(seed)
	for i, p := range powers {
		s.vec[i] = int64(mulMod(x, p[0]))<<40 ^ int64(mulMod(x, p[1]))<<20 ^ int64(mulMod(x, p[2])) ^ cooked[i]
	}
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// Uint64 returns a pseudo-random 64-bit integer.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// pool keeps Rands over Sources between bisections, so a bisection
// neither allocates the 4.9 KB state nor runs the serial seeding.
var pool = sync.Pool{New: func() any { return rand.New(new(Source)) }}

// Get returns a Rand whose stream equals rand.New(rand.NewSource(seed))'s.
// Hand it back with Put once done.
func Get(seed int64) *rand.Rand {
	r := pool.Get().(*rand.Rand)
	r.Seed(seed)
	return r
}

// Put returns a Rand from Get to the pool; the caller must not use it
// afterwards.
func Put(r *rand.Rand) { pool.Put(r) }

// Perm32 fills m with the permutation r.Perm(len(m)) would return,
// making exactly the draws r.Perm makes, without allocating.
func Perm32(r *rand.Rand, m []int32) {
	for i := range m {
		j := r.Intn(i + 1)
		m[i] = m[j]
		m[j] = int32(i)
	}
}
