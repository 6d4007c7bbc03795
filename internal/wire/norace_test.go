//go:build !race

package wire_test

// raceEnabled reports a race-detector build, whose allocation counts
// differ from the plain build's.
const raceEnabled = false
