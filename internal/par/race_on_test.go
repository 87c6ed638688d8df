//go:build race

package par

// raceEnabled skips the allocation pin under the race detector, where
// sync.Pool deliberately drops a share of what is put into it.
const raceEnabled = true
