package abr

import (
	"math"

	"sensei/internal/player"
	"sensei/internal/trace"
	"sensei/internal/video"
)

// bruteForce is the exhaustive planner as a player.Algorithm: the tree
// search's correctness oracle. It plans with m's configuration on the same
// inputs decide hands the tree search, but enumerates every plan
// (decideBrute). clock, when set, is the oracle predictor whose trace clock
// OracleMPC.Decide forwards before planning.
type bruteForce struct {
	m     *MPC
	clock *OraclePredictor
}

// bruteOf returns the oracle for m's configuration.
func bruteOf(m *MPC) bruteForce { return bruteForce{m: m} }

// bruteOracle returns the oracle for an exact-replay OracleMPC.
func bruteOracle(o *OracleMPC) bruteForce { return bruteForce{m: &o.MPC, clock: o.oracle} }

func (b bruteForce) Name() string { return b.m.Name() + "-brute" }

func (b bruteForce) Decide(s *player.State) player.Decision {
	if b.clock != nil {
		b.clock.nowSec = s.TraceTimeSec
	}
	m := b.m
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
	preStalls := noStallOnly
	if m.Sensitivity && len(m.PreStallChoices) > 0 && s.ChunkIndex > 0 {
		preStalls = m.PreStallChoices
	}
	return m.decideBrute(s, horizon, preStalls, pred.Predict(s.ThroughputBps, nil), s.SensitivityWeights())
}

// decideBrute is the exhaustive planner: every base-nRungs rung sequence
// over the horizon is simulated from scratch under every scenario. It is
// kept verbatim as the correctness oracle for the tree search.
func (m *MPC) decideBrute(s *player.State, horizon int, preStalls []float64, scenarios []Scenario, weights []float64) player.Decision {
	nRungs := len(s.Video.Ladder)
	bestScore := math.Inf(-1)
	bestNoStall := math.Inf(-1)
	best := player.Decision{Rung: 0}
	var bestStallDecision player.Decision
	bestStallScore := math.Inf(-1)

	// Enumerate plans: a proactive stall for the immediate chunk times a
	// rung sequence over the horizon. Sequences are enumerated in base
	// nRungs; the first element is the acted-on decision.
	plan := make([]int, horizon)
	total := 1
	for i := 0; i < horizon; i++ {
		total *= nRungs
	}
	for _, pre := range preStalls {
		for code := 0; code < total; code++ {
			c := code
			for i := 0; i < horizon; i++ {
				plan[i] = c % nRungs
				c /= nRungs
			}
			score := m.scorePlan(s, plan, pre, scenarios, weights)
			if pre == 0 && score > bestNoStall {
				bestNoStall = score
				best = player.Decision{Rung: plan[0]}
			}
			if pre > 0 && score > bestStallScore {
				bestStallScore = score
				bestStallDecision = player.Decision{Rung: plan[0], PreStallSec: pre}
			}
			if score > bestScore {
				bestScore = score
			}
		}
	}
	// Proactive stalls must clear the margin over the best stall-free plan.
	if bestStallScore > bestNoStall+m.PreStallMargin {
		return bestStallDecision
	}
	return best
}

// scorePlan simulates the plan under each scenario and returns the
// risk-adjusted score: (1−λ)·expected + λ·worst-scenario.
func (m *MPC) scorePlan(s *player.State, plan []int, pre float64, scenarios []Scenario, weights []float64) float64 {
	stallScale := math.Sqrt(float64(s.Video.NumChunks())) / 1.75
	chunkDur := video.ChunkDuration.Seconds()
	var expected float64
	worst := math.Inf(1)
	for _, sc := range scenarios {
		var cur *trace.Cursor
		if sc.Exact != nil {
			cur = trace.NewCursor(sc.Exact)
			cur.Advance(sc.StartSec)
		}
		buffer := s.BufferSec + pre
		prev := s.LastRung
		var totalQ float64
		// Proactive stall cost applies to the immediate chunk under every
		// scenario.
		stall := pre
		for k, rung := range plan {
			i := s.ChunkIndex + k
			var dl float64
			if cur != nil {
				dl = cur.Download(s.Video.ChunkSizeBits(i, rung))
			} else {
				dl = s.Video.ChunkSizeBits(i, rung) / sc.Bps
			}
			if dl > buffer {
				stall += dl - buffer
				buffer = 0
			} else {
				buffer -= dl
			}
			buffer += chunkDur

			q := s.Video.VMAF(i, rung)
			// The conversions round each product before it is subtracted,
			// as the tree search's tabulated switch cost is rounded, so the
			// two planners agree bit for bit even where the compiler may
			// fuse a multiply into the subtraction.
			q -= float64(stallScale * m.Quality.StallCost(stall))
			if prev >= 0 {
				q -= float64(m.Quality.SwitchPenalty * math.Abs(s.Video.VMAF(i, rung)-prevVMAF(s.Video, i, prev)))
			}
			if m.Sensitivity && weights != nil {
				q *= weights[i]
			}
			totalQ += q
			prev = rung
			stall = 0
		}
		expected += sc.P * totalQ
		if totalQ < worst {
			worst = totalQ
		}
	}
	if len(scenarios) > 1 && m.RiskAversion > 0 {
		return (1-m.RiskAversion)*expected + m.RiskAversion*worst
	}
	return expected
}

// prevVMAF returns the VMAF of the previous chunk at the given rung,
// guarding the first chunk.
func prevVMAF(v *video.Video, i, prevRung int) float64 {
	if i == 0 {
		return v.VMAF(0, prevRung)
	}
	return v.VMAF(i-1, prevRung)
}
