//go:build race

package wire

// raceEnabled reports whether the race detector is active: it allocates on
// the program's behalf, so allocation counts are not measured under it.
const raceEnabled = true
