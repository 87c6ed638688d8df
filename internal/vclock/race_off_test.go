//go:build !race

package vclock

const raceEnabled = false
