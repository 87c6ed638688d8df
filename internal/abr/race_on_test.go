//go:build race

package abr

// raceEnabled coarsens the brute-force throughput sweep and tie grid under
// the race detector, whose instrumentation slows the exhaustive oracle ~10×.
const raceEnabled = true
