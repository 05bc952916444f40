//go:build !race

package main

// raceEnabled reports whether the test binary runs under the race
// detector, whose instrumentation allocates at random.
const raceEnabled = false
