//go:build race

package searchads_test

// raceEnabled reports a build with the race detector, whose
// instrumentation changes allocation counts.
const raceEnabled = true
