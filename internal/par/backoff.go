package par

import (
	"time"

	"sensei/internal/hashx"
)

// Defaults for a zero-valued Backoff. The budget is sized against the chaos
// plane's fault ceiling: with the default ceiling of 2 consecutive faults
// per stream, 4 retries guarantee every wire operation eventually lands.
const (
	DefaultBackoffAttempts = 4
	DefaultBackoffBase     = 25 * time.Millisecond
	DefaultBackoffMax      = 400 * time.Millisecond
)

// Backoff is a bounded retry schedule with deterministically jittered
// exponential delays. The zero value is usable and applies the defaults
// above; Attempts < 0 means "no retries at all" (first failure is final).
//
// Delay is a pure function of (Seed, attempt) — no global randomness — so a
// retry sequence is bit-identical across runs, which keeps the chaos
// plane's replay contract intact: a faulted fleet run re-executed with the
// same seeds issues the same requests in the same per-stream order.
type Backoff struct {
	// Attempts is the number of retries granted after the first try.
	Attempts int
	// Base is the nominal delay before the first retry; each subsequent
	// retry doubles it.
	Base time.Duration
	// Max caps every delay after jitter.
	Max time.Duration
	// Seed keys the deterministic jitter stream.
	Seed uint64
}

// Budget returns the effective retry count (resolving defaults).
func (b Backoff) Budget() int {
	switch {
	case b.Attempts < 0:
		return 0
	case b.Attempts == 0:
		return DefaultBackoffAttempts
	default:
		return b.Attempts
	}
}

// Delay returns the pause scheduled before retry attempt (0-based): an
// exponential 2^attempt multiple of Base, jittered deterministically into
// [50%, 100%) of its nominal value, capped at Max. It allocates nothing.
func (b Backoff) Delay(attempt int) time.Duration {
	base := b.Base
	if base <= 0 {
		base = DefaultBackoffBase
	}
	max := b.Max
	if max <= 0 {
		max = DefaultBackoffMax
	}
	if attempt < 0 {
		attempt = 0
	}
	d := base
	// Shift with an explicit cap instead of base<<attempt: a large attempt
	// count must saturate at Max, not overflow into a negative Duration.
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	// Deterministic jitter: a splitmix64 draw keyed by (Seed, attempt)
	// mapped to [0.5, 1.0) de-synchronizes retry storms across sessions
	// while keeping each session's schedule replayable.
	h := hashx.Mix64(b.Seed ^ (uint64(attempt+1) * hashx.Gamma))
	frac := 0.5 + 0.5*float64(h>>11)/(1<<53)
	return time.Duration(frac * float64(d))
}
