package crowd

import (
	"fmt"
	"math"

	"sensei/internal/mos"
	"sensei/internal/qoe"
	"sensei/internal/stats"
)

// RatedRendering pairs a rendering with its crowdsourced MOS.
type RatedRendering struct {
	Rendering *qoe.Rendering
	// MOS is the normalized mean opinion score in [0,1].
	MOS float64
	// Raters is how many accepted ratings the MOS averages.
	Raters int
}

// CostModel prices a campaign the way MTurk does (§4.3, Appendix B): raters
// are paid a fixed hourly rate prorated by the video time they watch, and
// wall-clock delay is dominated by asynchronous participant signup.
type CostModel struct {
	// HourlyRateUSD is the participant wage (the paper pays $10/hr).
	HourlyRateUSD float64
	// VideosPerSurvey is K, the renderings each participant rates.
	VideosPerSurvey int
	// BaseDelayMinutes is the fixed campaign setup/visibility delay.
	BaseDelayMinutes float64
	// PerParticipantDelayMinutes models asynchronous signup (tens of
	// minutes per ~100 participants in the paper).
	PerParticipantDelayMinutes float64
}

// DefaultCostModel mirrors the paper's settings: $10/hr, K=8 videos per
// survey, and signup pacing such that ~100 participants take ~78 minutes.
func DefaultCostModel() CostModel {
	return CostModel{
		HourlyRateUSD:              10,
		VideosPerSurvey:            8,
		BaseDelayMinutes:           8,
		PerParticipantDelayMinutes: 0.7,
	}
}

// Campaign accumulates the ratings, cost and delay of one profiling run
// against a rater population.
type Campaign struct {
	pop  *mos.Population
	cost CostModel

	// WatchedSeconds is the total paid watch time across participants,
	// including the per-survey reference viewing.
	WatchedSeconds float64
	// Views counts accepted rendering views (excluding references).
	Views int
	// Rejected counts raters rejected by integrity checks.
	Rejected int
}

// NewCampaign starts a campaign over the population with the cost model.
func NewCampaign(pop *mos.Population, cost CostModel) (*Campaign, error) {
	if pop == nil || pop.Size() == 0 {
		return nil, fmt.Errorf("crowd: campaign needs a rater population")
	}
	if cost.HourlyRateUSD <= 0 || cost.VideosPerSurvey <= 0 {
		return nil, fmt.Errorf("crowd: invalid cost model %+v", cost)
	}
	return &Campaign{pop: pop, cost: cost}, nil
}

// RateAt collects ratings at an explicit, caller-assigned rater offset
// without touching campaign state. mos.CollectMOS is a pure function of
// its arguments, so RateAt calls at precomputed offsets may run
// concurrently and in any order while returning bit-identical results.
// Callers apply the bookkeeping afterwards with Account, in task order.
func (c *Campaign) RateAt(r *qoe.Rendering, raters, offset int) (RatedRendering, int, error) {
	m, rejected, err := mos.CollectMOS(c.pop, r, raters, offset)
	if err != nil {
		return RatedRendering{}, 0, fmt.Errorf("crowd: rating %s: %w", r.Video.Name, err)
	}
	return RatedRendering{Rendering: r, MOS: m, Raters: raters}, rejected, nil
}

// Account applies one rating's cost and rejection bookkeeping. Parallel
// campaigns call it sequentially in task order after the fan-out joins, so
// the floating-point watch-time total — and thus CostUSD — is independent
// of worker count and scheduling.
func (c *Campaign) Account(r *qoe.Rendering, raters, rejected int) {
	c.Rejected += rejected
	dur := r.Video.Duration().Seconds() + r.TotalStallSec()
	c.WatchedSeconds += dur * float64(raters)
	c.Views += raters
}

// Participants estimates how many distinct participants the campaign needed
// given K videos per survey.
func (c *Campaign) Participants() int {
	if c.Views == 0 {
		return 0
	}
	return int(math.Ceil(float64(c.Views) / float64(c.cost.VideosPerSurvey)))
}

// CostUSD returns the total payout: watch time (plus one reference video
// per participant, approximated by the mean rendering length) at the hourly
// rate.
func (c *Campaign) CostUSD() float64 {
	if c.Views == 0 {
		return 0
	}
	meanView := c.WatchedSeconds / float64(c.Views)
	withRefs := c.WatchedSeconds + meanView*float64(c.Participants())
	return withRefs / 3600 * c.cost.HourlyRateUSD
}

// DelayMinutes returns the campaign wall-clock estimate: fixed setup plus
// asynchronous signup. Rating itself parallelizes across participants and
// is dominated by signup (§4.3).
func (c *Campaign) DelayMinutes() float64 {
	return c.cost.BaseDelayMinutes + c.cost.PerParticipantDelayMinutes*float64(c.Participants())
}

// weightRow is one observation for the Eq. 2 regression: a rendering's
// per-chunk deficits indexed in the target video's chunk space, and its
// measured MOS. For whole-video renderings the mapping is the identity; for
// windowed clips the profiler offsets deficits to global chunk indices.
type weightRow struct {
	// deficits[i] is d_i/N for global chunk i (sparse; zero elsewhere).
	deficits []float64
	mos      float64
}

// solveWeights runs the ridge regression MOS_j ≈ 1 − Σ_i w_i x_{j,i} with
// w = 1 + δ and an L2 penalty on δ, so sparse or noisy data degrades toward
// the content-blind model. Weights are floored at a small positive value.
func solveWeights(n int, rows []weightRow, lambda float64) ([]float64, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("crowd: no rated renderings")
	}
	if lambda <= 0 {
		lambda = 0.05
	}
	x := make([][]float64, len(rows))
	y := make([]float64, len(rows))
	for j, row := range rows {
		if len(row.deficits) != n {
			return nil, fmt.Errorf("crowd: row %d has %d deficit columns, want %d", j, len(row.deficits), n)
		}
		x[j] = row.deficits
		// 1 − MOS = Σ (1+δ_i) x_i  ⇒  (1 − MOS) − Σ x_i = Σ δ_i x_i.
		var base float64
		for _, d := range row.deficits {
			base += d
		}
		y[j] = (1 - row.mos) - base
	}
	delta, err := stats.Ridge(x, y, lambda)
	if err != nil {
		return nil, fmt.Errorf("crowd: weight regression: %w", err)
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 + delta[i]
		if w[i] < 0.05 {
			w[i] = 0.05
		}
	}
	return w, nil
}
