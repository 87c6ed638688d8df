package crowd

import (
	"math"
	"testing"

	"sensei/internal/mos"
	"sensei/internal/qoe"
	"sensei/internal/stats"
	"sensei/internal/video"
)

func shortVideo(t *testing.T) *video.Video {
	t.Helper()
	full, err := video.ByName("Soccer1")
	if err != nil {
		t.Fatal(err)
	}
	// One-minute excerpt: 15 chunks, like the paper's per-minute costing.
	v, err := full.Excerpt(0, 15)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func population(t *testing.T, size int, seed uint64) *mos.Population {
	t.Helper()
	p, err := mos.NewPopulation(mos.PopulationConfig{Size: size, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestIncidentApplyRebuffer(t *testing.T) {
	v := shortVideo(t)
	r, err := Incident{Kind: KindRebuffer, StallSec: 2}.Apply(v, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.StallSec[3] != 2 {
		t.Fatalf("stall not applied: %v", r.StallSec)
	}
	if r.TotalStallSec() != 2 {
		t.Fatal("extra stalls appeared")
	}
	if r.SwitchCount() != 0 {
		t.Fatal("rebuffer incident changed rungs")
	}
}

func TestIncidentApplyDrop(t *testing.T) {
	v := shortVideo(t)
	r, err := Incident{Kind: KindBitrateDrop, Rung: 0, DropChunks: 1}.Apply(v, 5)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rungs[5] != 0 {
		t.Fatal("drop not applied")
	}
	if r.Rungs[4] != len(v.Ladder)-1 || r.Rungs[6] != len(v.Ladder)-1 {
		t.Fatal("drop leaked to neighbours")
	}
}

func TestIncidentValidation(t *testing.T) {
	v := shortVideo(t)
	cases := []struct {
		inc   Incident
		chunk int
	}{
		{Incident{Kind: KindRebuffer, StallSec: 1}, -1},
		{Incident{Kind: KindRebuffer, StallSec: 1}, v.NumChunks()},
		{Incident{Kind: KindRebuffer, StallSec: 0}, 0},
		{Incident{Kind: KindBitrateDrop, Rung: len(v.Ladder) - 1}, 0},
		{Incident{Kind: KindBitrateDrop, Rung: -1}, 0},
		{Incident{Kind: "bogus"}, 0},
	}
	for i, c := range cases {
		if _, err := c.inc.Apply(v, c.chunk); err == nil {
			t.Errorf("case %d accepted invalid incident", i)
		}
	}
}

func TestIncidentString(t *testing.T) {
	if got := (Incident{Kind: KindRebuffer, StallSec: 4}).String(); got != "4s-rebuffer" {
		t.Errorf("got %q", got)
	}
	if got := (Incident{Kind: KindBitrateDrop, Rung: 1}).String(); got != "drop-to-rung1" {
		t.Errorf("got %q", got)
	}
}

func TestVideoSeries(t *testing.T) {
	v := shortVideo(t)
	series, err := VideoSeries(v, Incident{Kind: KindRebuffer, StallSec: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != v.NumChunks() {
		t.Fatalf("series size %d", len(series))
	}
	for i, r := range series {
		if r.StallSec[i] != 1 {
			t.Fatalf("rendering %d stall misplaced", i)
		}
	}
}

func TestCampaignAccounting(t *testing.T) {
	v := shortVideo(t)
	pop := population(t, 300, 31)
	camp, err := NewCampaign(pop, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	r := qoe.NewRendering(v)
	_, rejected, err := camp.RateAt(r, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	camp.Account(r, 10, rejected)
	if camp.Views != 10 {
		t.Fatalf("views %d", camp.Views)
	}
	wantWatch := v.Duration().Seconds() * 10
	if math.Abs(camp.WatchedSeconds-wantWatch) > 1e-9 {
		t.Fatalf("watched %v, want %v", camp.WatchedSeconds, wantWatch)
	}
	if camp.CostUSD() <= 0 || camp.DelayMinutes() <= 0 {
		t.Fatal("cost/delay not positive")
	}
	if camp.Participants() != 2 { // 10 views / K=8 → 2 participants
		t.Fatalf("participants %d", camp.Participants())
	}
}

func TestCampaignStallTimeIsPaid(t *testing.T) {
	v := shortVideo(t)
	pop := population(t, 300, 37)
	camp, _ := NewCampaign(pop, DefaultCostModel())
	stalled := qoe.NewRendering(v).WithStall(2, 4)
	_, rejected, err := camp.RateAt(stalled, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	camp.Account(stalled, 5, rejected)
	want := (v.Duration().Seconds() + 4) * 5
	if math.Abs(camp.WatchedSeconds-want) > 1e-9 {
		t.Fatalf("watched %v, want %v (stall time must be watched)", camp.WatchedSeconds, want)
	}
}

func TestNewCampaignValidates(t *testing.T) {
	pop := population(t, 10, 1)
	if _, err := NewCampaign(nil, DefaultCostModel()); err == nil {
		t.Error("nil population accepted")
	}
	if _, err := NewCampaign(pop, CostModel{}); err == nil {
		t.Error("zero cost model accepted")
	}
}

func TestInferWeightsRecoversSensitivity(t *testing.T) {
	v := shortVideo(t)
	pr := NewProfiler(population(t, 2000, 41))
	// Generous rater budget: weights should track the hidden truth well.
	pr.Params.M1, pr.Params.M2 = 60, 60
	p, err := pr.Profile(v)
	if err != nil {
		t.Fatal(err)
	}
	w, truth := p.Weights, v.TrueSensitivity()
	if r := stats.Spearman(w, truth); r < 0.7 {
		t.Fatalf("inferred weights rank-correlate %.2f with truth, want >= 0.7", r)
	}
	// Absolute scale should be recovered too (not just ranks).
	var maxErr float64
	for i := range w {
		if e := math.Abs(w[i] - truth[i]); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 0.6 {
		t.Fatalf("worst absolute weight error %.2f too large", maxErr)
	}
}

// TestInferWeightsValidates: the Eq. 2 solver refuses no ratings at all,
// and a row whose deficits index another video's chunks.
func TestInferWeightsValidates(t *testing.T) {
	if _, err := solveWeights(15, nil, 0.05); err == nil {
		t.Error("empty input accepted")
	}
	mixed := []weightRow{
		{deficits: make([]float64, 15), mos: 0.9},
		{deficits: make([]float64, 12), mos: 0.9},
	}
	if _, err := solveWeights(15, mixed, 0.05); err == nil {
		t.Error("mixed videos accepted")
	}
}

func TestProfileTwoStep(t *testing.T) {
	v := shortVideo(t)
	pr := NewProfiler(population(t, 3000, 43))
	p, err := pr.Profile(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Weights) != v.NumChunks() {
		t.Fatalf("%d weights", len(p.Weights))
	}
	for i, w := range p.Weights {
		if w <= 0 || w > 3 {
			t.Fatalf("weight %d = %v implausible", i, w)
		}
	}
	// Cost should be in the paper's ballpark: tens of dollars per minute,
	// far below the unpruned hundreds.
	if p.CostPerMinuteUSD < 5 || p.CostPerMinuteUSD > 120 {
		t.Fatalf("pruned cost $%.1f/min outside plausible band", p.CostPerMinuteUSD)
	}
	if p.DelayMinutes <= 0 || p.Participants <= 0 {
		t.Fatal("missing accounting")
	}
	truth := v.TrueSensitivity()
	if r := stats.Spearman(p.Weights, truth); r < 0.45 {
		t.Fatalf("two-step weights correlate %.2f with truth", r)
	}
}

func TestProfileFullCostsMore(t *testing.T) {
	v := shortVideo(t)
	pr := NewProfiler(population(t, 8000, 47))
	pruned, err := pr.Profile(v)
	if err != nil {
		t.Fatal(err)
	}
	full, err := pr.ProfileFull(v)
	if err != nil {
		t.Fatal(err)
	}
	if full.CostUSD <= pruned.CostUSD*5 {
		t.Fatalf("full $%.0f should dwarf pruned $%.0f", full.CostUSD, pruned.CostUSD)
	}
	// Fig 12c: pruning cuts ~96.7% of cost.
	reduction := 1 - pruned.CostUSD/full.CostUSD
	if reduction < 0.85 {
		t.Fatalf("cost reduction %.2f, want > 0.85", reduction)
	}
	// Full enumeration should recover weights at least as well on average;
	// at minimum it must remain strongly correlated with truth.
	if r := stats.Spearman(full.Weights, v.TrueSensitivity()); r < 0.6 {
		t.Fatalf("full-enumeration weights correlate %.2f with truth", r)
	}
}

func TestProfileAll(t *testing.T) {
	full, err := video.ByName("Mountain") // shortest catalog video
	if err != nil {
		t.Fatal(err)
	}
	pr := NewProfiler(population(t, 3000, 53))
	weights, profiles, err := pr.ProfileAll([]*video.Video{full})
	if err != nil {
		t.Fatal(err)
	}
	if len(weights) != 1 || len(profiles) != 1 {
		t.Fatal("wrong result sizes")
	}
	if _, ok := weights["Mountain"]; !ok {
		t.Fatal("missing weights entry")
	}
}

func TestStepTwoIncidentCount(t *testing.T) {
	v := shortVideo(t)
	p := DefaultSchedulerParams()
	incidents := stepTwoIncidents(v, p)
	// B=2 drops + F=1 rebuffer = 3.
	if len(incidents) != 3 {
		t.Fatalf("%d incidents, want 3", len(incidents))
	}
	p.BitrateLevels = 99 // clamped to ladder size - 1
	incidents = stepTwoIncidents(v, p)
	if len(incidents) != len(v.Ladder)-1+1 {
		t.Fatalf("%d incidents after clamp", len(incidents))
	}
}

func TestMoreRatersImproveWeights(t *testing.T) {
	// Fig 16c's premise: accuracy grows with raters per rendering.
	v := shortVideo(t)
	truth := v.TrueSensitivity()
	var rFew, rMany float64
	const trials = 4
	for trial := 0; trial < trials; trial++ {
		pop := population(t, 6000, uint64(61+trial))
		few, many := NewProfiler(pop), NewProfiler(pop)
		few.Params.M1, few.Params.M2 = 3, 3
		many.Params.M1, many.Params.M2 = 40, 40
		pFew, err := few.Profile(v)
		if err != nil {
			t.Fatal(err)
		}
		pMany, err := many.Profile(v)
		if err != nil {
			t.Fatal(err)
		}
		rFew += stats.Spearman(pFew.Weights, truth) / trials
		rMany += stats.Spearman(pMany.Weights, truth) / trials
	}
	if rMany <= rFew {
		t.Fatalf("40 raters (r=%.2f) should beat 3 raters (r=%.2f)", rMany, rFew)
	}
}
