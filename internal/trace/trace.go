// Package trace models network throughput traces.
//
// The paper replays throughput traces from two public datasets — FCC fixed
// broadband measurements and the Norwegian 3G/HSDPA commute traces — picking
// traces whose average throughput lies between 0.2 and 6 Mbps so that ABR
// decisions are non-trivial (§7.1). Those files are not available offline,
// so this package synthesizes traces with the same statistical character:
//
//   - FCC-like: relatively stable broadband with occasional congestion dips
//     (modeled as a mean-reverting process with a two-state congestion
//     Markov chain);
//   - HSDPA-like: bursty cellular throughput with deep fades and handover
//     outages (higher relative variance, occasional near-zero holes).
//
// Traces are bucketed at one-second granularity. A Cursor replays a trace,
// answering "how long does it take to download S bits starting at time t?",
// which is the only primitive the player simulator needs.
package trace

import (
	"fmt"
	"math"

	"sensei/internal/stats"
)

// BucketSeconds is the trace sampling granularity, in seconds.
const BucketSeconds = 1.0

// Trace is a throughput time series in bits per second, one sample per
// second. Replay wraps around, so a Trace can be shorter than the video it
// serves (the paper's traces are looped the same way).
type Trace struct {
	// Name identifies the trace in experiment output.
	Name string
	// BitsPerSecond holds one throughput sample per second.
	BitsPerSecond []float64
}

// Validate reports an error if the trace is empty or has non-positive
// samples (a zero-throughput bucket would deadlock replay; outages are
// represented by very low, not zero, throughput).
func (t *Trace) Validate() error {
	if len(t.BitsPerSecond) == 0 {
		return fmt.Errorf("trace %q: empty", t.Name)
	}
	for i, v := range t.BitsPerSecond {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("trace %q: sample %d is %v", t.Name, i, v)
		}
	}
	return nil
}

// Mean returns the average throughput in bits per second.
func (t *Trace) Mean() float64 {
	return stats.Mean(t.BitsPerSecond)
}

// At returns the throughput at time tSec, wrapping around the trace end.
func (t *Trace) At(tSec float64) float64 {
	if tSec < 0 {
		tSec = 0
	}
	i := int(tSec/BucketSeconds) % len(t.BitsPerSecond)
	return t.BitsPerSecond[i]
}

// Scaled returns a copy with every sample multiplied by factor. The paper
// rescales traces to {20,40,...,100}% to sweep average bandwidth (Fig 6,
// Fig 12b).
func (t *Trace) Scaled(factor float64) *Trace {
	out := &Trace{Name: fmt.Sprintf("%s×%.2f", t.Name, factor)}
	out.BitsPerSecond = make([]float64, len(t.BitsPerSecond))
	for i, v := range t.BitsPerSecond {
		out.BitsPerSecond[i] = v * factor
	}
	return out
}

// WithNoise returns a copy with zero-mean Gaussian noise of the given
// standard deviation (bits/s) added to each sample, floored at floorBps.
// This is the Fig 17 variance-injection experiment.
func (t *Trace) WithNoise(stddevBps, floorBps float64, rng *stats.RNG) *Trace {
	out := &Trace{Name: fmt.Sprintf("%s+σ%.0f", t.Name, stddevBps)}
	out.BitsPerSecond = make([]float64, len(t.BitsPerSecond))
	for i, v := range t.BitsPerSecond {
		s := v + stddevBps*rng.Norm()
		if s < floorBps {
			s = floorBps
		}
		out.BitsPerSecond[i] = s
	}
	return out
}

// Cursor replays a trace, tracking a current position in seconds.
type Cursor struct {
	trace *Trace
	now   float64
}

// NewCursor returns a cursor positioned at time 0.
func NewCursor(t *Trace) *Cursor {
	return &Cursor{trace: t}
}

// Now returns the current replay time in seconds.
func (c *Cursor) Now() float64 { return c.now }

// Advance moves the cursor forward by dt seconds without downloading.
func (c *Cursor) Advance(dt float64) {
	if dt > 0 {
		c.now += dt
	}
}

// DownloadEnd returns the trace-clock time at which a transfer of bits
// starting at startSec completes. It is a pure function — the stateless
// core of Cursor.Download — so planners that explore many futures from a
// shared prefix (the MPC tree search) can evaluate downloads without
// allocating a cursor per candidate plan. Transfers spanning bucket
// boundaries consume each bucket's capacity proportionally.
func (t *Trace) DownloadEnd(startSec, bits float64) float64 {
	now := startSec
	remaining := bits
	for remaining > 1e-9 {
		rate := t.At(now)
		// Time left in the current 1-second bucket.
		bucketEnd := math.Floor(now/BucketSeconds)*BucketSeconds + BucketSeconds
		avail := bucketEnd - now
		capacity := rate * avail
		if capacity >= remaining {
			now += remaining / rate
			remaining = 0
		} else {
			remaining -= capacity
			now = bucketEnd
		}
	}
	return now
}

// Download consumes bits from the trace starting at the current time and
// returns the wall-clock seconds the transfer took. The cursor advances to
// the completion time.
func (c *Cursor) Download(bits float64) float64 {
	if bits <= 0 {
		return 0
	}
	start := c.now
	c.now = c.trace.DownloadEnd(start, bits)
	return c.now - start
}

// MeanAhead returns the average throughput over the next horizon seconds
// from the current position. Oracle-style ABRs (§2.4) use this; online ABRs
// must not.
func (c *Cursor) MeanAhead(horizonSec float64) float64 {
	if horizonSec <= 0 {
		return c.trace.At(c.now)
	}
	n := int(math.Ceil(horizonSec / BucketSeconds))
	var sum float64
	for i := 0; i < n; i++ {
		sum += c.trace.At(c.now + float64(i)*BucketSeconds)
	}
	return sum / float64(n)
}
