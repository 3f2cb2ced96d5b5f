//go:build !race

package bench

// raceDetector reports whether this test binary is race-instrumented.
const raceDetector = false
