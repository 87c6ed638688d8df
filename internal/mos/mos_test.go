package mos

import (
	"math"
	"testing"

	"sensei/internal/qoe"
	"sensei/internal/stats"
	"sensei/internal/video"
)

func soccer(t *testing.T) *video.Video {
	t.Helper()
	v, err := video.ByName("Soccer1")
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func pop(t *testing.T, n int, seed uint64) *Population {
	t.Helper()
	p, err := NewPopulation(PopulationConfig{Size: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestTrueQoEBounds(t *testing.T) {
	v := soccer(t)
	pristine := qoe.NewRendering(v)
	if got := TrueQoE(pristine); got < 0.95 || got > 1 {
		t.Fatalf("pristine QoE %v, want near 1", got)
	}
	// Degrade everything.
	wrecked := pristine.Clone()
	for i := range wrecked.Rungs {
		wrecked.Rungs[i] = 0
		wrecked.StallSec[i] = 3
	}
	if got := TrueQoE(wrecked); got > 0.25 {
		t.Fatalf("wrecked QoE %v, want low", got)
	}
}

func TestTrueQoESensitivityAlignment(t *testing.T) {
	// A stall at the most sensitive chunk must hurt more than at the least
	// sensitive chunk — the Figure 1 phenomenon.
	v := soccer(t)
	w := v.TrueSensitivity()
	hi, lo := 0, 0
	for i := range w {
		if w[i] > w[hi] {
			hi = i
		}
		if w[i] < w[lo] {
			lo = i
		}
	}
	base := qoe.NewRendering(v)
	if TrueQoE(base.WithStall(hi, 1)) >= TrueQoE(base.WithStall(lo, 1)) {
		t.Fatal("stall at sensitive chunk should yield lower QoE")
	}
	// The unweighted view cannot tell them apart.
	unweighted := func(r *qoe.Rendering) float64 { return qoe.QoE01(qoe.DefaultQualityParams(), r, nil) }
	d := unweighted(base.WithStall(hi, 1)) - unweighted(base.WithStall(lo, 1))
	if math.Abs(d) > 1e-9 {
		t.Fatalf("unweighted QoE should be position-blind, diff %v", d)
	}
}

func TestNewPopulationValidates(t *testing.T) {
	if _, err := NewPopulation(PopulationConfig{Size: 0}); err == nil {
		t.Fatal("zero population accepted")
	}
}

func TestPopulationDeterministic(t *testing.T) {
	v := soccer(t)
	r := qoe.NewRendering(v).WithStall(3, 1)
	a := pop(t, 50, 7)
	b := pop(t, 50, 7)
	for i := 0; i < 50; i++ {
		if a.Rater(i).Rate(r) != b.Rater(i).Rate(r) {
			t.Fatal("same seed, different ratings")
		}
	}
}

func TestMasterFraction(t *testing.T) {
	p, err := NewPopulation(PopulationConfig{Size: 100, MasterFraction: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var masters int
	for i := 0; i < p.Size(); i++ {
		if p.Rater(i).Master {
			masters++
		}
	}
	if masters != 30 {
		t.Fatalf("%d masters, want 30", masters)
	}
}

func TestRateWithinLikert(t *testing.T) {
	v := soccer(t)
	p := pop(t, 30, 11)
	for _, r := range []*qoe.Rendering{
		qoe.NewRendering(v),
		qoe.NewRendering(v).WithStall(2, 4).WithRung(5, 0),
	} {
		for i := 0; i < p.Size(); i++ {
			score := p.Rater(i).Rate(r)
			if score < LikertMin || score > LikertMax {
				t.Fatalf("rating %d outside scale", score)
			}
		}
	}
}

func TestMOSAggregation(t *testing.T) {
	m, err := MOS([]int{1, 5})
	if err != nil || math.Abs(m-0.5) > 1e-12 {
		t.Fatalf("MOS = %v, %v", m, err)
	}
	if _, err := MOS(nil); err == nil {
		t.Fatal("empty ratings accepted")
	}
	if _, err := MOS([]int{0}); err == nil {
		t.Fatal("out-of-scale rating accepted")
	}
	if _, err := MOS([]int{6}); err == nil {
		t.Fatal("out-of-scale rating accepted")
	}
}

func TestCollectMOSApproachesTruth(t *testing.T) {
	v := soccer(t)
	r := qoe.NewRendering(v).WithStall(4, 2).WithRung(7, 1)
	truth := TrueQoE(r)
	p := pop(t, 400, 13)
	m, _, err := CollectMOS(p, r, 300, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-truth) > 0.06 {
		t.Fatalf("MOS %v far from truth %v", m, truth)
	}
}

func TestCollectMOSMoreRatersLessVariance(t *testing.T) {
	v := soccer(t)
	r := qoe.NewRendering(v).WithStall(3, 1)
	var few, many []float64
	for trial := 0; trial < 20; trial++ {
		p := pop(t, 200, uint64(100+trial))
		f, _, err := CollectMOS(p, r, 5, 0)
		if err != nil {
			t.Fatal(err)
		}
		m, _, err := CollectMOS(p, r, 60, 0)
		if err != nil {
			t.Fatal(err)
		}
		few = append(few, f)
		many = append(many, m)
	}
	if stats.StdDev(many) >= stats.StdDev(few) {
		t.Fatalf("60-rater stddev %v not below 5-rater %v",
			stats.StdDev(many), stats.StdDev(few))
	}
}

func TestCollectMOSValidates(t *testing.T) {
	v := soccer(t)
	p := pop(t, 10, 17)
	if _, _, err := CollectMOS(p, qoe.NewRendering(v), 0, 0); err == nil {
		t.Fatal("zero raters accepted")
	}
}

func TestMastersRejectedLessOften(t *testing.T) {
	// Appendix C: master Turker rejection rate is much lower than normal
	// Turkers'.
	v := soccer(t)
	r := qoe.NewRendering(v).WithStall(5, 1)
	p, err := NewPopulation(PopulationConfig{Size: 2000, MasterFraction: 0.5, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	var masterFail, normalFail, masterN, normalN int
	for i := 0; i < p.Size(); i++ {
		rt := p.Rater(i)
		_, ok := rt.tryRate(TrueQoE(r), i)
		fail := !ok
		if rt.Master {
			masterN++
			if fail {
				masterFail++
			}
		} else {
			normalN++
			if fail {
				normalFail++
			}
		}
	}
	mRate := float64(masterFail) / float64(masterN)
	nRate := float64(normalFail) / float64(normalN)
	if nRate <= mRate {
		t.Fatalf("normal rejection %v not above master %v", nRate, mRate)
	}
}

func TestRebufferPositionMatters(t *testing.T) {
	// End-to-end Figure 1 sanity: on a 25-second excerpt (like the paper's
	// Soccer1 clip), MOS across stall positions must vary far more than MOS
	// noise. Pick the clip with the widest sensitivity spread, as the
	// paper's Soccer1 clip spans gameplay, the goal and the celebration.
	full := soccer(t)
	w := full.TrueSensitivity()
	best, bestSpread := 0, -1.0
	for s := 0; s+6 <= len(w); s++ {
		lo, hi := w[s], w[s]
		for _, x := range w[s : s+6] {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		if hi-lo > bestSpread {
			bestSpread, best = hi-lo, s
		}
	}
	v, err := full.Excerpt(best, best+6)
	if err != nil {
		t.Fatal(err)
	}
	p := pop(t, 600, 29)
	base := qoe.NewRendering(v)
	var scores []float64
	for i := 0; i < v.NumChunks(); i++ {
		m, _, err := CollectMOS(p, base.WithStall(i, 1), 120, 0)
		if err != nil {
			t.Fatal(err)
		}
		scores = append(scores, m)
	}
	gap := stats.Max(scores) - stats.Min(scores)
	if gap < 0.05 {
		t.Fatalf("max-min MOS gap %v too small for Figure 1 phenomenon", gap)
	}
}
