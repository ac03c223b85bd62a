//go:build race

package sim

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
