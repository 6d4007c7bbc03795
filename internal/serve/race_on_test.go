//go:build race

package serve

// raceEnabled reports a race-detector build, whose allocation counts
// differ from the plain build's.
const raceEnabled = true
