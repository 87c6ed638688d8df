// Package qoe defines rendered-video descriptions, visual-quality proxies,
// the per-chunk quality model q(b,t) shared by the ABR objectives (Eq. 3/4
// of the paper), and the QoE prediction models compared in the evaluation:
// KSQI, P.1203, LSTM-QoE and SENSEI's reweighted model (Eq. 2).
package qoe

import (
	"fmt"
	"math"

	"sensei/internal/video"
)

// Rendering describes one streamed playback of a source video: which ladder
// rung each chunk was delivered at and how much stalling preceded it. It is
// the common currency between the player simulator, the QoE models, and the
// crowdsourcing pipeline (a "rendered video" in the paper's terms).
type Rendering struct {
	// Video is the source content.
	Video *video.Video
	// Rungs holds the ladder index chosen for each chunk.
	Rungs []int
	// StallSec holds the rebuffering time in seconds experienced
	// immediately before each chunk begins playing. Index 0 represents
	// startup delay beyond the baseline join time.
	StallSec []float64
}

// NewRendering returns a rendering of v at the highest ladder rung with no
// stalls — the reference rendering used for rater calibration.
func NewRendering(v *video.Video) *Rendering {
	n := v.NumChunks()
	r := &Rendering{
		Video:    v,
		Rungs:    make([]int, n),
		StallSec: make([]float64, n),
	}
	top := len(v.Ladder) - 1
	for i := range r.Rungs {
		r.Rungs[i] = top
	}
	return r
}

// Validate reports structural problems: length mismatches, out-of-range
// rungs, or negative stalls.
func (r *Rendering) Validate() error {
	n := r.Video.NumChunks()
	if len(r.Rungs) != n || len(r.StallSec) != n {
		return fmt.Errorf("qoe: rendering of %q has %d rungs / %d stalls for %d chunks",
			r.Video.Name, len(r.Rungs), len(r.StallSec), n)
	}
	for i, rung := range r.Rungs {
		if rung < 0 || rung >= len(r.Video.Ladder) {
			return fmt.Errorf("qoe: chunk %d rung %d outside ladder of %d", i, rung, len(r.Video.Ladder))
		}
		if r.StallSec[i] < 0 || math.IsNaN(r.StallSec[i]) {
			return fmt.Errorf("qoe: chunk %d stall %v invalid", i, r.StallSec[i])
		}
	}
	return nil
}

// Clone returns a deep copy.
func (r *Rendering) Clone() *Rendering {
	return &Rendering{
		Video:    r.Video,
		Rungs:    append([]int(nil), r.Rungs...),
		StallSec: append([]float64(nil), r.StallSec...),
	}
}

// WithStall returns a copy with sec seconds of rebuffering inserted before
// chunk i (added to any existing stall there).
func (r *Rendering) WithStall(i int, sec float64) *Rendering {
	c := r.Clone()
	c.StallSec[i] += sec
	return c
}

// WithRung returns a copy with chunk i delivered at the given ladder rung.
func (r *Rendering) WithRung(i, rung int) *Rendering {
	c := r.Clone()
	c.Rungs[i] = rung
	return c
}

// TotalStallSec returns the total rebuffering time.
func (r *Rendering) TotalStallSec() float64 {
	var s float64
	for _, v := range r.StallSec {
		s += v
	}
	return s
}

// StallRatio returns total stall time over total playback time.
func (r *Rendering) StallRatio() float64 {
	return r.TotalStallSec() / r.Video.Duration().Seconds()
}

// MeanBitrateKbps returns the average delivered bitrate.
func (r *Rendering) MeanBitrateKbps() float64 {
	var s float64
	for _, rung := range r.Rungs {
		s += float64(r.Video.Ladder[rung])
	}
	return s / float64(len(r.Rungs))
}

// SwitchCount returns the number of chunk boundaries where the rung changes.
func (r *Rendering) SwitchCount() int {
	var n int
	for i := 1; i < len(r.Rungs); i++ {
		if r.Rungs[i] != r.Rungs[i-1] {
			n++
		}
	}
	return n
}
