//go:build race

package fleet

// raceEnabled gentles the one wall-clock test under the race detector (its
// instrumentation overhead breaks aggressive time compression, so
// measurements drown in protocol noise) and skips the allocation budget
// (the detector allocates on the program's behalf).
const raceEnabled = true
