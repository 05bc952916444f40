//go:build race

package reorder

// raceEnabled reports whether this test binary was built with -race. The
// ScaleTest permutation digests skip themselves under the race detector:
// its slowdown turns a seconds-long run into minutes, and CI runs them in
// a step of their own without -race.
const raceEnabled = true
