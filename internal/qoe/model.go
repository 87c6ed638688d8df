package qoe

import (
	"fmt"

	"sensei/internal/stats"
)

// Sample pairs a rendering with its ground-truth QoE (a MOS normalized to
// [0,1]). Model training and evaluation both consume samples.
type Sample struct {
	Rendering *Rendering
	// TrueQoE is the normalized mean opinion score.
	TrueQoE float64
}

// Model predicts the QoE of a rendering. Implementations: KSQI, P1203,
// LSTMQoE and SenseiModel.
type Model interface {
	// Name identifies the model in experiment output.
	Name() string
	// Predict returns the model's QoE estimate, nominally in [0,1].
	Predict(r *Rendering) float64
}

// Evaluation summarizes a model's accuracy on a test set, mirroring the
// metrics reported in Figs 2 and 15.
type Evaluation struct {
	Model string
	// MeanRelativeError is mean |pred-true|/true (x-axis of Fig 2).
	MeanRelativeError float64
	// PLCC and SRCC are Pearson and Spearman correlations (Fig 15).
	PLCC, SRCC float64
}

// Evaluate computes accuracy metrics for a model over samples.
func Evaluate(m Model, samples []Sample) Evaluation {
	pred := make([]float64, len(samples))
	truth := make([]float64, len(samples))
	for i, s := range samples {
		pred[i] = m.Predict(s.Rendering)
		truth[i] = s.TrueQoE
	}
	return Evaluation{
		Model:             m.Name(),
		MeanRelativeError: stats.MeanRelativeError(pred, truth),
		PLCC:              stats.Pearson(pred, truth),
		SRCC:              stats.Spearman(pred, truth),
	}
}

// ksqiFeatures maps a rendering to the KSQI feature vector: intercept, mean
// visual quality, stall ratio, switch magnitude and startup stall. These are
// the knowledge-driven features of the KSQI model (visual quality +
// rebuffering + quality switches in a constrained linear model).
func ksqiFeatures(r *Rendering) []float64 {
	n := len(r.Rungs)
	var vmaf, switchMag float64
	for i := 0; i < n; i++ {
		vmaf += ChunkVMAF(r, i)
		if i > 0 {
			d := ChunkVMAF(r, i) - ChunkVMAF(r, i-1)
			if d < 0 {
				d = -d
			}
			switchMag += d
		}
	}
	vmaf /= float64(n)
	switchMag /= float64(n)
	return []float64{1, vmaf, r.StallRatio(), switchMag, r.StallSec[0]}
}

// KSQI is a knowledge-driven linear QoE model over visual quality,
// rebuffering and quality switches, fitted by least squares. It is additive
// across chunks (Eq. 1) and content-blind: two renderings with identical
// incident statistics receive identical scores regardless of *where* in the
// video the incidents fall.
type KSQI struct {
	model *stats.LinearModel
}

// Name implements Model.
func (k *KSQI) Name() string { return "KSQI" }

// Fit trains the linear coefficients on rated renderings.
func (k *KSQI) Fit(samples []Sample) error {
	if len(samples) < 6 {
		return fmt.Errorf("qoe: KSQI needs at least 6 samples, got %d", len(samples))
	}
	x := make([][]float64, len(samples))
	y := make([]float64, len(samples))
	for i, s := range samples {
		x[i] = ksqiFeatures(s.Rendering)
		y[i] = s.TrueQoE
	}
	m, err := stats.FitLinear(x, y, 1e-6)
	if err != nil {
		return fmt.Errorf("qoe: fitting KSQI: %w", err)
	}
	k.model = m
	return nil
}

// Predict implements Model. An unfitted KSQI returns the mean visual
// quality, a sane default.
func (k *KSQI) Predict(r *Rendering) float64 {
	if k.model == nil {
		return ksqiFeatures(r)[1]
	}
	return stats.Clamp(k.model.Predict(ksqiFeatures(r)), 0, 1)
}

// SenseiModel is the paper's QoE model (Eq. 2): the additive per-chunk
// quality kernel q(b, t) reweighted by each video's profiled sensitivity
// weights, followed by an affine calibration onto the MOS scale. Weights
// come from the crowd package's inference pipeline; they are per-video.
type SenseiModel struct {
	// Base is a fallback model for videos without profiled weights.
	Base *KSQI
	// Params is the per-chunk quality kernel configuration.
	Params QualityParams
	// Weights maps video name to its per-chunk sensitivity weights.
	Weights map[string][]float64

	// Affine calibration Q = a + b*weightedQuality; identity-ish defaults
	// mirror the normalized-MOS mapping until Fit is called.
	a, b float64
}

// NewSenseiModel returns a SenseiModel over a fallback base with the given
// per-video weights and the default quality kernel.
func NewSenseiModel(base *KSQI, weights map[string][]float64) *SenseiModel {
	return &SenseiModel{
		Base:    base,
		Params:  DefaultQualityParams(),
		Weights: weights,
		a:       0,
		b:       1,
	}
}

// Name implements Model.
func (s *SenseiModel) Name() string { return "SENSEI" }

// Predict implements Model: Q = a + b · (1 − (1/N) Σ w_i d_i). Videos
// without profiled weights fall back to the base model.
func (s *SenseiModel) Predict(r *Rendering) float64 {
	w, ok := s.Weights[r.Video.Name]
	if !ok || len(w) != len(r.Rungs) {
		return s.Base.Predict(r)
	}
	return stats.Clamp(s.a+s.b*QoE01(s.Params, r, w), 0, 1)
}

// Fit calibrates the affine output mapping on rated renderings. Samples for
// videos without weights are ignored; at least 2 usable samples are needed.
func (s *SenseiModel) Fit(samples []Sample) error {
	var x [][]float64
	var y []float64
	for _, sm := range samples {
		w, ok := s.Weights[sm.Rendering.Video.Name]
		if !ok || len(w) != len(sm.Rendering.Rungs) {
			continue
		}
		x = append(x, []float64{1, QoE01(s.Params, sm.Rendering, w)})
		y = append(y, sm.TrueQoE)
	}
	if len(x) < 2 {
		return fmt.Errorf("qoe: SENSEI calibration needs >=2 weighted samples, got %d", len(x))
	}
	coef, err := stats.Ridge(x, y, 1e-9)
	if err != nil {
		return fmt.Errorf("qoe: calibrating SENSEI: %w", err)
	}
	s.a, s.b = coef[0], coef[1]
	return nil
}
