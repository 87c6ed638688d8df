//go:build race

package player

// raceEnabled skips allocation counting under the race detector, whose
// instrumentation allocates on its own.
const raceEnabled = true
