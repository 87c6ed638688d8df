// Package hashx holds the two stateless 64-bit hashes the rest of the
// repository derives its determinism from — fault schedules, backoff
// jitter, ring placement and every stats.RNG stream — so each exists once.
// Changing either function re-rolls all of them.
package hashx

// Gamma is splitmix64's state increment (2^64 / φ, made odd).
const Gamma = 0x9e3779b97f4a7c15

// Mix64 is one step of splitmix64 from state x: add Gamma, finalize. As a
// function it is a cheap, well-distributed bijection, used wherever code
// needs stateless per-index randomness; Mix64(x), Mix64(x+Gamma), … is the
// generator's output stream.
func Mix64(x uint64) uint64 {
	x += Gamma
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// FNV1a returns the 64-bit FNV-1a hash of s, allocation-free.
func FNV1a(s string) uint64 { return FNV1aFrom(14695981039346656037, s) }

// FNV1aFrom continues the FNV-1a hash h over s, so a key made of several
// parts hashes without being concatenated first.
func FNV1aFrom(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
