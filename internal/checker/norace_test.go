//go:build !race

package checker

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
