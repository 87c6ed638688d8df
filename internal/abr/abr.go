// Package abr implements the adaptive-bitrate algorithms compared in the
// paper: BBA (buffer-based), a Fugu-style stochastic MPC over a predicted
// throughput distribution (Eq. 3), a Pensieve-style reinforcement-learning
// policy, the SENSEI variants of both (Eq. 4 plus the proactive-rebuffer
// action), and the idealized offline oracles of §2.4.
package abr

import (
	"sensei/internal/player"
	"sensei/internal/qoe"
	"sensei/internal/trace"
)

// BBA is buffer-based adaptation (Huang et al., SIGCOMM'14): the rung is a
// piecewise-linear function of the buffer level between a reservoir and a
// cushion, ignoring throughput and content entirely.
type BBA struct {
	// ReservoirSec is the buffer level below which BBA picks the lowest
	// rung (default 5).
	ReservoirSec float64
	// CushionSec is the buffer level above which BBA picks the top rung
	// (default 20).
	CushionSec float64
}

// NewBBA returns a BBA with the standard reservoir/cushion.
func NewBBA() *BBA { return &BBA{ReservoirSec: 5, CushionSec: 20} }

// Name implements player.Algorithm.
func (b *BBA) Name() string { return "BBA" }

// Decide implements player.Algorithm.
func (b *BBA) Decide(s *player.State) player.Decision {
	reservoir, cushion := b.ReservoirSec, b.CushionSec
	if reservoir <= 0 {
		reservoir = 5
	}
	if cushion <= reservoir {
		cushion = reservoir + 15
	}
	top := len(s.Video.Ladder) - 1
	switch {
	case s.BufferSec <= reservoir:
		return player.Decision{Rung: 0}
	case s.BufferSec >= cushion:
		return player.Decision{Rung: top}
	default:
		frac := (s.BufferSec - reservoir) / (cushion - reservoir)
		rung := int(frac * float64(top+1))
		if rung > top {
			rung = top
		}
		return player.Decision{Rung: rung}
	}
}

// Predictor estimates the distribution of near-future throughput from the
// measurement history. Implementations return scenarios with probabilities
// summing to 1, the p(γ) of Eq. 3.
type Predictor interface {
	// Predict appends throughput scenarios in bits/s, given recent
	// measurements (most recent last), to dst and returns the extended
	// slice, so a planner reuses one buffer across decisions. dst's
	// existing elements are left as they are.
	Predict(historyBps []float64, dst []Scenario) []Scenario
}

// Scenario is one throughput outcome with its probability.
type Scenario struct {
	// Bps is the assumed sustained throughput.
	Bps float64
	// P is the scenario probability.
	P float64
	// Exact, when non-nil, replaces the constant Bps with an exact replay
	// of this trace starting at StartSec. Only the §2.4 oracles use it;
	// online predictors must leave it nil.
	Exact *trace.Trace
	// StartSec is the replay offset for Exact.
	StartSec float64
}

// harmonicWindow bounds how many recent samples HarmonicPredictor uses.
const harmonicWindow = 5

// HarmonicPredictor predicts via the harmonic mean of the last
// harmonicWindow samples — the robust-MPC estimator — and spreads it into a
// three-point distribution whose width follows the history's relative
// variability.
type HarmonicPredictor struct{}

// Predict implements Predictor. With no history it assumes a conservative
// 1 Mbps.
func (h *HarmonicPredictor) Predict(history []float64, dst []Scenario) []Scenario {
	if len(history) > harmonicWindow {
		history = history[len(history)-harmonicWindow:]
	}
	mean := 1e6
	if len(history) > 0 {
		var inv float64
		for _, v := range history {
			if v <= 0 {
				continue
			}
			inv += 1 / v
		}
		if inv > 0 {
			mean = float64(len(history)) / inv
		}
	}
	// Spread grows with observed variability: max relative deviation from
	// the harmonic mean, clamped to [0.15, 0.5]. With fewer samples than
	// the window the estimate is unreliable, so uncertainty stays maximal —
	// early-session gambles are how stalls land on the wrong chunks.
	spread := 0.15
	if len(history) < harmonicWindow {
		spread = 0.5
	}
	for _, v := range history {
		d := (v - mean) / mean
		if d < 0 {
			d = -d
		}
		if d > spread {
			spread = d
		}
	}
	if spread > 0.5 {
		spread = 0.5
	}
	return append(dst,
		Scenario{Bps: mean * (1 - spread), P: 0.3},
		Scenario{Bps: mean, P: 0.4},
		Scenario{Bps: mean * (1 + spread), P: 0.3},
	)
}

// SessionQoE scores a finished rendering with the unweighted deficit kernel
// — the KSQI-style objective the baseline ABRs optimize.
func SessionQoE(r *qoe.Rendering) float64 {
	return qoe.QoE01(qoe.DefaultQualityParams(), r, nil)
}

// WeightedSessionQoE scores a rendering with the sensitivity-weighted
// kernel — SENSEI's objective.
func WeightedSessionQoE(r *qoe.Rendering, weights []float64) float64 {
	return qoe.QoE01(qoe.DefaultQualityParams(), r, weights)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Compile-time interface checks.
var (
	_ player.Algorithm = (*BBA)(nil)
	_ Predictor        = (*HarmonicPredictor)(nil)
)
