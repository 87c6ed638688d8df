// Package stats provides the numerical substrate shared by every SENSEI
// module: deterministic random number generation, ordinary least squares and
// ridge regression, correlation metrics (Pearson, Spearman), empirical
// distributions, and ranking utilities.
//
// Everything here is stdlib-only and deterministic given a seed, so that the
// experiment harness regenerates the same tables and figures on every run.
package stats

import (
	"math"

	"sensei/internal/hashx"
)

// RNG is a small, fast, deterministic pseudo-random generator based on
// splitmix64. The zero value is usable and equivalent to NewRNG(0).
//
// It intentionally does not use math/rand so that sequences are stable
// across Go releases; the experiment harness depends on replayability.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Fork derives an independent generator from the current one. The derived
// stream is decorrelated from the parent by a fixed odd multiplier, so
// subsystems can fork per-video or per-rater generators without aliasing.
func (r *RNG) Fork() *RNG {
	return &RNG{state: r.Uint64()*hashx.Gamma + 0x632be59bd9b4e019}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	z := hashx.Mix64(r.state)
	r.state += hashx.Gamma
	return z
}

// Float64 returns a uniform sample in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform sample in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform sample in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Norm returns a sample from the standard normal distribution using the
// Box-Muller transform.
func (r *RNG) Norm() float64 {
	// Avoid log(0) by keeping u1 strictly positive.
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Perm returns a random permutation of [0, n) using Fisher-Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}
