package experiments

import (
	"fmt"

	"sensei/internal/crowd"
	"sensei/internal/mos"
	"sensei/internal/qoe"
	"sensei/internal/stats"
)

// AppendixBResult reproduces the survey-mechanics findings of Appendices
// B and C: randomized viewing order leaves no position bias, master
// Turkers are rejected far less often than normal Turkers, and the
// crowd needs somewhat more raters than an in-lab panel to reach the same
// MOS variance.
type AppendixBResult struct {
	// OrderBias is the position-rating correlation across accepted
	// surveys (should be near zero under randomization).
	OrderBias float64
	// MasterRejectRate and NormalRejectRate are survey rejection rates by
	// Turker class (Appendix C: normal ≈ 4× master).
	MasterRejectRate, NormalRejectRate float64
	// CrowdExtraRatersPct is how many more crowd raters than in-lab raters
	// are needed to match MOS variance (paper: ~17%).
	CrowdExtraRatersPct float64
}

// AppendixB runs the survey-mechanics study.
func (l *Lab) AppendixB() (*AppendixBResult, error) {
	_, inlab, err := l.Populations()
	if err != nil {
		return nil, err
	}
	// Surveys advance each rater's sequential stream, so the study runs on
	// its own copy of the MTurk pool: its result must not depend on how
	// often it already ran on this lab.
	mturk, err := mos.NewPopulation(l.mturkConfig())
	if err != nil {
		return nil, err
	}
	clip := l.excerptByName("Soccer1")
	if clip == nil {
		return nil, fmt.Errorf("experiments: Soccer1 missing")
	}
	var clips []*qoe.Rendering
	for i := 0; i < 4; i++ {
		clips = append(clips, qoe.NewRendering(clip).WithStall(i+1, 1))
	}

	res := &AppendixBResult{}

	// Order bias across many surveys.
	rng := stats.NewRNG(0xb0)
	var surveys []*crowd.SurveyResult
	nSurveys := 300
	if l.Mode == Quick {
		nSurveys = 120
	}
	for i := 0; i < nSurveys; i++ {
		s, err := crowd.RunSurvey(mturk.Rater(i%mturk.Size()), clips, rng.Fork())
		if err != nil {
			return nil, err
		}
		surveys = append(surveys, s)
	}
	res.OrderBias = crowd.OrderBias(surveys)

	// Rejection rates by Turker class need a mixed population.
	mixed, err := mos.NewPopulation(mos.PopulationConfig{Size: 3000, MasterFraction: 0.5, Seed: 0xb1})
	if err != nil {
		return nil, err
	}
	res.MasterRejectRate, res.NormalRejectRate, err = crowd.RejectionRates(mixed, clips, 2000, 0xb2)
	if err != nil {
		return nil, err
	}

	// Raters needed to match in-lab MOS variance: measure the sampling
	// stddev of MOS at fixed rater counts for both pools and find the
	// crowd count matching the in-lab stddev at 20 raters.
	target := clips[1]
	mosStd := func(pop *mos.Population, raters, trials int, seed int) (float64, error) {
		var ms []float64
		for tr := 0; tr < trials; tr++ {
			m, _, err := mos.CollectMOS(pop, target, raters, seed+tr*raters)
			if err != nil {
				return 0, err
			}
			ms = append(ms, m)
		}
		return stats.StdDev(ms), nil
	}
	inlabStd, err := mosStd(inlab, 20, 10, 0)
	if err != nil {
		return nil, err
	}
	crowdRaters := 20
	for ; crowdRaters <= 40; crowdRaters += 2 {
		s, err := mosStd(mturk, crowdRaters, 10, 40000)
		if err != nil {
			return nil, err
		}
		if s <= inlabStd {
			break
		}
	}
	res.CrowdExtraRatersPct = float64(crowdRaters-20) / 20
	return res, nil
}

// Render formats the findings.
func (r *AppendixBResult) Render() string {
	t := &Table{Title: "Appendix B/C: survey mechanics", Headers: []string{"Metric", "Value", "Paper"}}
	t.AddRow("viewing-order bias (PLCC)", f3(r.OrderBias), "~0 (randomized)")
	t.AddRow("master rejection rate", pct(r.MasterRejectRate), "low")
	t.AddRow("normal rejection rate", pct(r.NormalRejectRate), ">4x master")
	t.AddRow("extra crowd raters vs in-lab", pct(r.CrowdExtraRatersPct), "17%")
	return t.Render()
}
