package origin

import (
	"fmt"
	"sync"
	"time"

	"sensei/internal/trace"
	"sensei/internal/vclock"
)

// Shaper throttles egress to follow a throughput trace. It is the offline
// stand-in for the paper's Mahimahi-style trace replay: every connection
// sharing one shaper contends on one bottleneck whose capacity at virtual
// time t is the trace sample at t. The origin gives each session its own
// Shaper, so sessions replay independent trace cursors instead of
// contending on a global one. Virtual time advances TimeScale times faster
// than wall-clock time, so a 15-minute session can run in seconds without
// changing any of the throughput arithmetic.
//
// The shaper reads time from a vclock.Clock, so the same arithmetic runs
// against the wall clock or the discrete-event simulated one: under a
// simulated clock no time passes between a client starting a download and
// the origin computing its throttle, so the shaped duration is exact —
// the trace integral with zero protocol-overhead smearing.
type Shaper struct {
	// TimeScale compresses time: virtualSeconds = wallSeconds / TimeScale
	// ... i.e. sleeping wallSeconds = virtualSeconds * TimeScale. A value
	// of 0.01 runs sessions 100× faster than real time.
	TimeScale float64

	clock vclock.Clock

	mu     sync.Mutex
	cursor trace.Cursor
	epoch  time.Duration // clock reading at construction
}

// NewShaper starts a shaper replaying tr from virtual time zero, reading
// time from clock.
func NewShaper(tr *trace.Trace, timeScale float64, clock vclock.Clock) (*Shaper, error) {
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("origin: shaper: %w", err)
	}
	if timeScale <= 0 {
		timeScale = 1
	}
	return &Shaper{
		TimeScale: timeScale,
		clock:     clock,
		cursor:    *trace.NewCursor(tr),
		epoch:     clock.Now(),
	}, nil
}

// VirtualNow returns the current virtual time in seconds.
func (s *Shaper) VirtualNow() float64 {
	return (s.clock.Now() - s.epoch).Seconds() / s.TimeScale
}

// Throttle accounts for n bytes crossing the bottleneck and returns how
// long (clock time) the caller must sleep before the bytes are considered
// delivered. The shaper's cursor is kept in sync with clock-derived
// virtual time so idle periods consume trace capacity like a real link.
//
// The returned duration is the incremental virtual cost of exactly these n
// bytes, so callers may batch: one Throttle(n) for a whole segment sleeps
// the same total wall time as one call per write slice (the trace
// integral is linear in delivered bits), just with one timer wakeup
// instead of many. The segment path relies on this.
func (s *Shaper) Throttle(n int) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Sync the cursor forward to "now" if the link has been idle.
	now := s.VirtualNow()
	if now > s.cursor.Now() {
		s.cursor.Advance(now - s.cursor.Now())
	}
	virtualSec := s.cursor.Download(float64(n) * 8)
	return time.Duration(virtualSec * s.TimeScale * float64(time.Second))
}
