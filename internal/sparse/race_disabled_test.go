//go:build !race

package sparse

// raceEnabled reports whether this test binary was built with -race; see
// race_enabled_test.go.
const raceEnabled = false
