//go:build race

package sparse

// raceEnabled reports whether this test binary was built with -race. The
// random sweeps against strconv shrink under the race detector, whose
// slowdown would turn seconds into minutes.
const raceEnabled = true
