package abr

import (
	"sensei/internal/player"
	"sensei/internal/qoe"
)

// MPC is a Fugu-style model-predictive ABR: before each chunk it simulates
// the next Horizon chunk downloads under every bitrate plan and throughput
// scenario from the Predictor, and picks the plan maximizing expected total
// quality (Eq. 3). With Sensitivity enabled it instead maximizes the
// sensitivity-weighted quality (Eq. 4) and may open each plan with a
// proactive rebuffering action — the SENSEI-Fugu variant (§5.2).
type MPC struct {
	// Horizon is the look-ahead in chunks (the paper picks h=5).
	Horizon int
	// Predictor supplies the throughput distribution p(γ).
	Predictor Predictor
	// Sensitivity enables the SENSEI objective and actions. When enabled,
	// the player state must carry profiled weights.
	Sensitivity bool
	// PreStallChoices are the proactive rebuffer durations considered for
	// the immediate chunk (SENSEI action space {0,1,2} seconds). Only used
	// with Sensitivity.
	PreStallChoices []float64
	// PreStallMargin is the minimum expected-score improvement a nonzero
	// proactive stall must show over the best stall-free plan before it is
	// taken. Proactive stalls pay a certain cost now for a modeled future
	// benefit; under throughput-prediction error the margin keeps the
	// planner from gambling on marginal wins (default 0.25).
	PreStallMargin float64
	// RiskAversion blends the expected plan score with its worst-scenario
	// score: score = (1−λ)·E + λ·min. Stall blow-ups are convex in
	// prediction error — and for the weighted objective they are worst
	// exactly at high-sensitivity chunks — so pure expectation gambles too
	// hard (default 0.35; 0 recovers plain expectation).
	RiskAversion float64
	// Quality configures the per-chunk kernel q(b, t).
	Quality qoe.QualityParams
}

// NewFugu returns the baseline MPC (unweighted Eq. 3 objective, no
// proactive stalls) with horizon 5.
func NewFugu() *MPC {
	return &MPC{
		Horizon:      5,
		Predictor:    &HarmonicPredictor{},
		RiskAversion: 0.35,
		Quality:      qoe.DefaultQualityParams(),
	}
}

// NewSenseiFugu returns SENSEI-Fugu: the Eq. 4 objective with the
// {0,1,2}-second proactive rebuffer action.
func NewSenseiFugu() *MPC {
	m := NewFugu()
	m.Sensitivity = true
	m.PreStallChoices = []float64{0, 1, 2}
	// A proactive stall pays a certain, immediate cost for a predicted
	// benefit; with online (error-prone) throughput prediction it must
	// clear a high bar. Fig 18b of the paper finds the same: the weighted
	// objective carries most of SENSEI's gain, the extra action a little.
	m.PreStallMargin = 1.0
	return m
}

// Name implements player.Algorithm.
func (m *MPC) Name() string {
	if m.Sensitivity {
		return "SENSEI-Fugu"
	}
	return "Fugu"
}

// noStallOnly is the pre-stall action space of the baseline MPC.
var noStallOnly = []float64{0}

// Decide implements player.Algorithm.
func (m *MPC) Decide(s *player.State) player.Decision {
	t := treePool.Get().(*treeSearch)
	d := m.decide(t, s)
	t.release()
	return d
}

// decide plans one chunk on search scratch t.
func (m *MPC) decide(t *treeSearch, s *player.State) player.Decision {
	horizon := m.Horizon
	if horizon <= 0 {
		horizon = 5
	}
	if s.ChunkIndex+horizon > s.Video.NumChunks() {
		horizon = s.Video.NumChunks() - s.ChunkIndex
	}
	pred := m.Predictor
	if pred == nil {
		pred = &HarmonicPredictor{}
	}

	// One sensitivity snapshot per decision: the planner receives this
	// slice explicitly and never re-reads the state, so a live profile
	// refresh lands between plans, never inside one.
	weights := s.SensitivityWeights()

	preStalls := noStallOnly
	if m.Sensitivity && len(m.PreStallChoices) > 0 && s.ChunkIndex > 0 {
		preStalls = m.PreStallChoices
	}
	return m.decideTree(t, s, horizon, preStalls, pred, weights)
}

// Compile-time interface check.
var _ player.Algorithm = (*MPC)(nil)
