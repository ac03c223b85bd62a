//go:build race

package modelcheck

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
