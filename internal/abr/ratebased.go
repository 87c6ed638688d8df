package abr

import (
	"sensei/internal/player"
)

// RateRule is the classic rate-based ABR (the paper's taxonomy groups ABRs
// into buffer-based and rate-based; this is the canonical representative
// of the latter, as used by early DASH players): pick the highest rung
// whose nominal bitrate fits under a safety fraction of the predicted
// throughput, with simple up/down hysteresis to damp oscillation.
type RateRule struct {
	// SafetyFactor is the fraction of predicted throughput considered
	// spendable (default 0.8).
	SafetyFactor float64
	// UpSwitchMargin requires the next rung up to fit with this extra
	// headroom before switching up (default 1.15), the standard
	// oscillation damper.
	UpSwitchMargin float64
	// Predictor supplies the throughput estimate (HarmonicPredictor by
	// default).
	Predictor Predictor
}

// NewRateRule returns a rate-based ABR with conventional parameters.
func NewRateRule() *RateRule {
	return &RateRule{SafetyFactor: 0.8, UpSwitchMargin: 1.15, Predictor: &HarmonicPredictor{}}
}

// Name implements player.Algorithm.
func (r *RateRule) Name() string { return "RateRule" }

// Decide implements player.Algorithm.
func (r *RateRule) Decide(s *player.State) player.Decision {
	safety := r.SafetyFactor
	if safety <= 0 || safety > 1 {
		safety = 0.8
	}
	margin := r.UpSwitchMargin
	if margin < 1 {
		margin = 1.15
	}
	pred := r.Predictor
	if pred == nil {
		pred = &HarmonicPredictor{}
	}
	// The scenarios borrow pooled planner scratch, as the MPC's do, so a
	// decision allocates nothing.
	t := treePool.Get().(*treeSearch)
	// Point estimate: the probability-weighted mean.
	var estimate float64
	t.scenBuf = pred.Predict(s.ThroughputBps, t.scenBuf[:0])
	for _, sc := range t.scenBuf {
		estimate += sc.P * sc.Bps
	}
	t.release()
	budget := estimate * safety

	best := 0
	for rung, kbps := range s.Video.Ladder {
		if float64(kbps)*1000 <= budget {
			best = rung
		}
	}
	// Hysteresis: switching up requires the margin; switching down is
	// immediate (running out of throughput is the expensive direction).
	if s.LastRung >= 0 && best > s.LastRung {
		next := s.LastRung + 1
		if float64(s.Video.Ladder[next])*1000*margin > budget {
			best = s.LastRung
		} else {
			best = next // climb one rung at a time
		}
	}
	return player.Decision{Rung: best}
}

// Compile-time interface check.
var _ player.Algorithm = (*RateRule)(nil)
