package qoe

import (
	"fmt"

	"sensei/internal/nn"
	"sensei/internal/stats"
)

// P1203 is a modular HTTP-adaptive-streaming QoE model in the style of
// ITU-T P.1203: bitstream-level distortion indicators (QP proxies here)
// combined with quality-incident summary metrics in a random-forest
// regressor. Like KSQI it is content-blind at the chunk level: it sees
// *how much* stalling and distortion occurred, not *where* attention was.
type P1203 struct {
	forest *nn.Forest
	// Trees sets the ensemble size; zero means the 40-tree default.
	Trees int
	// Seed makes training deterministic.
	Seed uint64
}

// Name implements Model.
func (p *P1203) Name() string { return "P.1203" }

// p1203Features summarizes a rendering into the model's feature vector.
func p1203Features(r *Rendering) []float64 {
	n := len(r.Rungs)
	var qp, qpMax, stallCount float64
	for i := 0; i < n; i++ {
		v := r.Video
		q := QPProxy(float64(v.Ladder[r.Rungs[i]]), float64(v.HighestBitrate()), v.Chunks[i].Complexity)
		qp += q
		if q > qpMax {
			qpMax = q
		}
		if r.StallSec[i] > 0 {
			stallCount++
		}
	}
	qp /= float64(n)
	return []float64{
		qp,
		qpMax,
		r.StallRatio(),
		stallCount / float64(n),
		r.MeanBitrateKbps() / 2850,
		float64(r.SwitchCount()) / float64(n),
		r.StallSec[0],
	}
}

// Fit trains the forest on rated renderings.
func (p *P1203) Fit(samples []Sample) error {
	if len(samples) < 10 {
		return fmt.Errorf("qoe: P.1203 needs at least 10 samples, got %d", len(samples))
	}
	x := make([][]float64, len(samples))
	y := make([]float64, len(samples))
	for i, s := range samples {
		x[i] = p1203Features(s.Rendering)
		y[i] = s.TrueQoE
	}
	trees := p.Trees
	if trees <= 0 {
		trees = 40
	}
	forest, err := nn.FitForest(x, y, nn.ForestConfig{
		Trees: trees,
		Tree:  nn.TreeConfig{MaxDepth: 6, MinLeaf: 4, FeatureFraction: 0.7},
		Seed:  p.Seed ^ 0x1203,
	})
	if err != nil {
		return fmt.Errorf("qoe: fitting P.1203: %w", err)
	}
	p.forest = forest
	return nil
}

// Predict implements Model. Unfitted models fall back to mean visual
// quality.
func (p *P1203) Predict(r *Rendering) float64 {
	if p.forest == nil {
		return 1 - p1203Features(r)[0]
	}
	return stats.Clamp(p.forest.Predict(p1203Features(r)), 0, 1)
}

// LSTMQoE is a recurrent QoE model in the style of LSTM-QoE: per-chunk
// (stall, STRRED, visual-quality) features are fed through an LSTM whose
// final state predicts the rating, capturing the "memory effect" of past
// incidents. Its inductive bias — distortion on *dynamic* scenes hurts
// most, via the STRRED input — is exactly the heuristic §2.3 shows can
// mispredict true sensitivity.
type LSTMQoE struct {
	net *nn.LSTMRegressor
	// Hidden sets the LSTM width; zero means the 8-unit default.
	Hidden int
	// Epochs sets the training budget; zero means the 40-epoch default.
	Epochs int
	// Seed makes training deterministic.
	Seed uint64
}

// Name implements Model.
func (l *LSTMQoE) Name() string { return "LSTM-QoE" }

// lstmSequence maps a rendering to the per-chunk feature sequence.
func lstmSequence(r *Rendering) [][]float64 {
	n := len(r.Rungs)
	seq := make([][]float64, n)
	for i := 0; i < n; i++ {
		seq[i] = []float64{
			r.StallSec[i] / 4.0,
			ChunkSTRRED(r, i),
			ChunkVMAF(r, i),
			r.Video.Chunks[i].Motion,
		}
	}
	return seq
}

// Fit trains the recurrent model on rated renderings.
func (l *LSTMQoE) Fit(samples []Sample) error {
	if len(samples) < 10 {
		return fmt.Errorf("qoe: LSTM-QoE needs at least 10 samples, got %d", len(samples))
	}
	hidden := l.Hidden
	if hidden <= 0 {
		hidden = 8
	}
	epochs := l.Epochs
	if epochs <= 0 {
		epochs = 40
	}
	net, err := nn.NewLSTMRegressor(l.Seed^0x15f1, 4, hidden)
	if err != nil {
		return fmt.Errorf("qoe: building LSTM-QoE: %w", err)
	}
	train := make([]nn.SeqSample, len(samples))
	for i, s := range samples {
		train[i] = nn.SeqSample{Seq: lstmSequence(s.Rendering), Target: s.TrueQoE}
	}
	if _, err := net.Fit(train, epochs, 0.01, l.Seed^0xfeed); err != nil {
		return fmt.Errorf("qoe: training LSTM-QoE: %w", err)
	}
	l.net = net
	return nil
}

// Predict implements Model. Unfitted models return mean visual quality.
func (l *LSTMQoE) Predict(r *Rendering) float64 {
	if l.net == nil {
		var s float64
		for i := range r.Rungs {
			s += ChunkVMAF(r, i)
		}
		return s / float64(len(r.Rungs))
	}
	return stats.Clamp(l.net.Predict(lstmSequence(r)), 0, 1)
}
