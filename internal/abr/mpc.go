package abr

import (
	"math"
	"sync"

	"sensei/internal/player"
	"sensei/internal/qoe"
	"sensei/internal/trace"
	"sensei/internal/video"
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
	// BruteForce selects the original flat base-nRungs plan enumeration
	// instead of the pruned tree search. The two planners return
	// byte-identical decisions (TestTreePlannerMatchesBruteForce); the flag
	// exists so the slow exhaustive planner remains available as the
	// correctness oracle for tests and benchmarks.
	BruteForce bool

	// vmafCache memoizes per-video VMAF tables. Keyed per video so one
	// algorithm instance can serve many sessions — concurrently and across
	// alternating videos — without thrashing or racing.
	vmafCache sync.Map // *video.Video -> *vmafTable
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

// vmafTable memoizes per-(chunk, rung) VMAF proxies for one video: the MPC
// inner loop evaluates them millions of times per session.
type vmafTable struct {
	video *video.Video
	v     [][]float64
}

func newVMAFTable(vd *video.Video) *vmafTable {
	t := &vmafTable{video: vd, v: make([][]float64, vd.NumChunks())}
	top := float64(vd.HighestBitrate())
	for i := range t.v {
		row := make([]float64, len(vd.Ladder))
		for r, kbps := range vd.Ladder {
			row[r] = qoe.VMAFProxy(float64(kbps), top, vd.Chunks[i].Complexity)
		}
		t.v[i] = row
	}
	return t
}

func (m *MPC) table(v *video.Video) *vmafTable {
	if t, ok := m.vmafCache.Load(v); ok {
		return t.(*vmafTable)
	}
	t, _ := m.vmafCache.LoadOrStore(v, newVMAFTable(v))
	return t.(*vmafTable)
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
	tbl := m.table(s.Video)

	// One sensitivity snapshot per decision: both planners receive this
	// slice explicitly and never re-read the state, so a live profile
	// refresh lands between plans, never inside one.
	weights := s.SensitivityWeights()

	preStalls := noStallOnly
	if m.Sensitivity && len(m.PreStallChoices) > 0 && s.ChunkIndex > 0 {
		preStalls = m.PreStallChoices
	}
	if m.BruteForce {
		return m.decideBrute(s, tbl, horizon, preStalls, pred.Predict(s.ThroughputBps), weights)
	}
	return m.decideTree(t, s, tbl, horizon, preStalls, pred, weights)
}

// decideBrute is the exhaustive planner: every base-nRungs rung sequence
// over the horizon is simulated from scratch under every scenario. It is
// kept verbatim as the correctness oracle for the tree search.
func (m *MPC) decideBrute(s *player.State, tbl *vmafTable, horizon int, preStalls []float64, scenarios []Scenario, weights []float64) player.Decision {
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
			score := m.scorePlan(s, tbl, plan, pre, scenarios, weights)
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
func (m *MPC) scorePlan(s *player.State, tbl *vmafTable, plan []int, pre float64, scenarios []Scenario, weights []float64) float64 {
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

			q := tbl.v[i][rung]
			// The conversions round each product before it is subtracted,
			// as the tree search's tabulated switch cost is rounded, so the
			// two planners agree bit for bit even where the compiler may
			// fuse a multiply into the subtraction.
			q -= float64(stallScale * m.Quality.StallCost(stall))
			if prev >= 0 {
				q -= float64(m.Quality.SwitchPenalty * math.Abs(tbl.v[i][rung]-prevVMAF(tbl, i, prev)))
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
func prevVMAF(tbl *vmafTable, i, prevRung int) float64 {
	if i == 0 {
		return tbl.v[0][prevRung]
	}
	return tbl.v[i-1][prevRung]
}

// Compile-time interface check.
var _ player.Algorithm = (*MPC)(nil)
