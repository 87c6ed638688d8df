package abr

import (
	"math"
	"testing"

	"sensei/internal/player"
	"sensei/internal/trace"
	"sensei/internal/video"
)

func testVideo(t *testing.T) *video.Video {
	t.Helper()
	full, err := video.ByName("Soccer1")
	if err != nil {
		t.Fatal(err)
	}
	v, err := full.Excerpt(0, 15)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func flatTrace(bps float64, secs int) *trace.Trace {
	s := make([]float64, secs)
	for i := range s {
		s[i] = bps
	}
	return &trace.Trace{Name: "flat", BitsPerSecond: s}
}

func TestBBABufferMapping(t *testing.T) {
	v := testVideo(t)
	b := NewBBA()
	low := b.Decide(&player.State{Video: v, BufferSec: 2})
	if low.Rung != 0 {
		t.Fatalf("reservoir rung %d", low.Rung)
	}
	high := b.Decide(&player.State{Video: v, BufferSec: 30})
	if high.Rung != len(v.Ladder)-1 {
		t.Fatalf("cushion rung %d", high.Rung)
	}
	mid := b.Decide(&player.State{Video: v, BufferSec: 12})
	if mid.Rung <= 0 || mid.Rung >= len(v.Ladder)-1 {
		t.Fatalf("mid-buffer rung %d", mid.Rung)
	}
	if low.PreStallSec != 0 || high.PreStallSec != 0 {
		t.Fatal("BBA must never proactively stall")
	}
}

func TestBBAZeroValueUsable(t *testing.T) {
	v := testVideo(t)
	var b BBA // zero value must behave sanely
	d := b.Decide(&player.State{Video: v, BufferSec: 10})
	if d.Rung < 0 || d.Rung >= len(v.Ladder) {
		t.Fatalf("rung %d", d.Rung)
	}
}

func TestHarmonicPredictor(t *testing.T) {
	p := &HarmonicPredictor{}
	scenarios := p.Predict([]float64{2e6, 2e6, 2e6}, nil)
	var sum, mean float64
	for _, s := range scenarios {
		sum += s.P
		mean += s.P * s.Bps
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("probabilities sum %v", sum)
	}
	if math.Abs(mean-2e6)/2e6 > 0.05 {
		t.Fatalf("mean scenario %v, want ~2e6", mean)
	}
	// Harmonic mean punishes dips below arithmetic mean.
	s2 := p.Predict([]float64{4e6, 0.5e6}, nil)
	center := s2[1].Bps
	if center >= 2.25e6 {
		t.Fatalf("harmonic center %v not below arithmetic mean", center)
	}
	// Empty history: conservative default.
	s3 := p.Predict(nil, nil)
	if s3[1].Bps != 1e6 {
		t.Fatalf("default prediction %v", s3[1].Bps)
	}
}

func TestPredictorSpreadGrowsWithVariance(t *testing.T) {
	// Full-window histories so the early-session uncertainty floor does
	// not apply.
	p := &HarmonicPredictor{}
	stable := p.Predict([]float64{2e6, 2e6, 2e6, 2e6, 2e6}, nil)
	bursty := p.Predict([]float64{1e6, 3e6, 1.2e6, 2.8e6, 1.5e6}, nil)
	spreadStable := stable[2].Bps - stable[0].Bps
	spreadBursty := bursty[2].Bps - bursty[0].Bps
	if spreadBursty/bursty[1].Bps <= spreadStable/stable[1].Bps {
		t.Fatal("bursty history should widen the scenario spread")
	}
}

// TestPredictAppendsToDst holds both predictors to Predict's contract: on
// a non-empty dst the existing scenarios are left intact and the appended
// ones equal what a nil-dst call returns, so a planner reusing one buffer
// plans on the same scenarios as a fresh slice.
func TestPredictAppendsToDst(t *testing.T) {
	oracle := &OraclePredictor{Trace: flatTrace(3e6, 60), nowSec: 7.5}
	for _, tc := range []struct {
		name string
		p    Predictor
	}{
		{"harmonic", &HarmonicPredictor{}},
		{"oracle", oracle},
	} {
		for _, history := range [][]float64{nil, {2e6}, {1e6, 3e6, 1.2e6, 2.8e6, 1.5e6, 4e6}} {
			fresh := tc.p.Predict(history, nil)
			if len(fresh) == 0 {
				t.Fatalf("%s %v: no scenarios", tc.name, history)
			}
			prefix := []Scenario{{Bps: 1, P: 0.25}, {Bps: 2, P: 0.75, StartSec: 3}}
			dst := append(make([]Scenario, 0, 8), prefix...)
			got := tc.p.Predict(history, dst)
			if len(got) != len(prefix)+len(fresh) {
				t.Fatalf("%s %v: %d scenarios after a %d-long dst, want %d", tc.name, history, len(got), len(prefix), len(prefix)+len(fresh))
			}
			for i := range prefix {
				if got[i] != prefix[i] {
					t.Fatalf("%s %v: dst[%d] = %+v, want %+v", tc.name, history, i, got[i], prefix[i])
				}
			}
			for i, sc := range fresh {
				if got[len(prefix)+i] != sc {
					t.Fatalf("%s %v: appended[%d] = %+v, nil-dst call gives %+v", tc.name, history, i, got[len(prefix)+i], sc)
				}
			}
		}
	}
}

func TestPredictorEarlySessionUncertainty(t *testing.T) {
	// With fewer samples than the window, the spread must be maximal:
	// early gambles are how stalls land on sensitive chunks.
	p := &HarmonicPredictor{}
	short := p.Predict([]float64{2e6, 2e6}, nil)
	spread := (short[2].Bps - short[0].Bps) / short[1].Bps
	if spread < 0.99 { // 2 * 0.5 max spread
		t.Fatalf("early-session relative spread %.2f, want ~1.0", spread)
	}
}

func TestFuguAvoidsRebuffering(t *testing.T) {
	v := testVideo(t)
	tr := flatTrace(1.5e6, 3600)
	res, err := player.Play(v, tr, NewFugu(), nil, player.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.RebufferSec > 1 {
		t.Fatalf("Fugu rebuffered %.1fs on a stable 1.5 Mbps link", res.RebufferSec)
	}
	// And it should not leave throughput on the table: mean bitrate should
	// be comfortably above the lowest rung.
	if res.Rendering.MeanBitrateKbps() < 600 {
		t.Fatalf("Fugu mean bitrate %.0f too conservative", res.Rendering.MeanBitrateKbps())
	}
}

func TestFuguTracksBandwidth(t *testing.T) {
	v := testVideo(t)
	fast, err := player.Play(v, flatTrace(5e6, 3600), NewFugu(), nil, player.Config{})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := player.Play(v, flatTrace(0.8e6, 3600), NewFugu(), nil, player.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if fast.Rendering.MeanBitrateKbps() <= slow.Rendering.MeanBitrateKbps() {
		t.Fatal("more bandwidth should yield higher bitrate")
	}
}

func TestFuguBeatsBBAOnQoE(t *testing.T) {
	v := testVideo(t)
	var fugu, bba float64
	traces := trace.TestSet()
	for _, tr := range traces {
		rf, err := player.Play(v, tr, NewFugu(), nil, player.Config{})
		if err != nil {
			t.Fatal(err)
		}
		rb, err := player.Play(v, tr, NewBBA(), nil, player.Config{})
		if err != nil {
			t.Fatal(err)
		}
		fugu += SessionQoE(rf.Rendering)
		bba += SessionQoE(rb.Rendering)
	}
	if fugu <= bba {
		t.Fatalf("Fugu total QoE %.3f not above BBA %.3f", fugu, bba)
	}
}

func TestSenseiFuguUsesWeights(t *testing.T) {
	v := testVideo(t)
	w := v.TrueSensitivity()
	// Mid-bandwidth so choices are non-trivial.
	var sensei, fugu float64
	for _, tr := range trace.TestSet()[:6] {
		rs, err := player.Play(v, tr, NewSenseiFugu(), w, player.Config{})
		if err != nil {
			t.Fatal(err)
		}
		rf, err := player.Play(v, tr, NewFugu(), nil, player.Config{})
		if err != nil {
			t.Fatal(err)
		}
		sensei += WeightedSessionQoE(rs.Rendering, w)
		fugu += WeightedSessionQoE(rf.Rendering, w)
	}
	if sensei <= fugu {
		t.Fatalf("SENSEI-Fugu weighted QoE %.3f not above Fugu %.3f", sensei, fugu)
	}
}

func TestSenseiFuguAlignsQualityWithSensitivity(t *testing.T) {
	// On a constrained link, the average rung delivered at high-weight
	// chunks should exceed the rung at low-weight chunks.
	v := testVideo(t)
	w := v.TrueSensitivity()
	tr := flatTrace(1.4e6, 3600)
	res, err := player.Play(v, tr, NewSenseiFugu(), w, player.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var hiSum, hiN, loSum, loN float64
	for i, rung := range res.Rendering.Rungs {
		if w[i] > 1.15 {
			hiSum += float64(rung)
			hiN++
		} else if w[i] < 0.85 {
			loSum += float64(rung)
			loN++
		}
	}
	if hiN == 0 || loN == 0 {
		t.Skip("excerpt lacks weight spread")
	}
	if hiSum/hiN < loSum/loN {
		t.Fatalf("high-sensitivity rung %.2f below low-sensitivity %.2f", hiSum/hiN, loSum/loN)
	}
}

func TestMPCDeterministic(t *testing.T) {
	v := testVideo(t)
	tr := trace.Generate(trace.GenSpec{Name: "d", Kind: trace.KindHSDPA, MeanBps: 2e6, Seconds: 900, Seed: 3})
	a, err := player.Play(v, tr, NewFugu(), nil, player.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := player.Play(v, tr, NewFugu(), nil, player.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rendering.Rungs {
		if a.Rendering.Rungs[i] != b.Rendering.Rungs[i] {
			t.Fatal("MPC replay diverged")
		}
	}
}

func TestPensieveTrainingImproves(t *testing.T) {
	if testing.Short() {
		t.Skip("RL training is slow")
	}
	videos := []*video.Video{testVideo(t)}
	// The pool must span slow and fast traces or the policy learns an
	// unconditional bitrate.
	traces := trace.TrainingSet(24, 99)
	eval := trace.TestSet()[3:6]

	score := func(p *Pensieve) float64 {
		var s float64
		for _, tr := range eval {
			res, err := player.Play(videos[0], tr, p, nil, player.Config{})
			if err != nil {
				t.Fatal(err)
			}
			s += SessionQoE(res.Rendering)
		}
		return s / float64(len(eval))
	}

	untrained := NewPensieve(5)
	before := score(untrained)

	trained := NewPensieve(5)
	if _, err := trained.Train(videos, traces, nil, TrainConfig{Episodes: 2000}); err != nil {
		t.Fatal(err)
	}
	after := score(trained)
	if !trained.trained {
		t.Fatal("not marked trained after training")
	}
	if after <= before {
		t.Fatalf("training regressed QoE: %.3f -> %.3f", before, after)
	}
	if after < 0.45 {
		t.Fatalf("trained QoE %.3f too low on mid-band traces", after)
	}
}

func TestPensieveTrainValidates(t *testing.T) {
	p := NewPensieve(1)
	if _, err := p.Train(nil, nil, nil, TrainConfig{}); err == nil {
		t.Fatal("empty training inputs accepted")
	}
}

func TestSenseiPensieveActionSpace(t *testing.T) {
	p := NewSenseiPensieve(9)
	if p.actionCount() != pensieveRungs+2 {
		t.Fatalf("action count %d", p.actionCount())
	}
	base := NewPensieve(9)
	if base.actionCount() != pensieveRungs {
		t.Fatalf("baseline action count %d", base.actionCount())
	}
	if p.featureSize() != base.featureSize()+p.Horizon {
		t.Fatal("SENSEI state must add the weight horizon")
	}
}

func TestSenseiPensieveDecodesStallAction(t *testing.T) {
	p := NewSenseiPensieve(11)
	v := testVideo(t)
	s := &player.State{Video: v, ChunkIndex: 3, LastRung: 2}
	d := p.decodeAction(pensieveRungs, s) // first stall action
	if d.PreStallSec != 1 || d.Rung != 2 {
		t.Fatalf("decoded %+v", d)
	}
	d2 := p.decodeAction(pensieveRungs+1, s)
	if d2.PreStallSec != 2 {
		t.Fatalf("decoded %+v", d2)
	}
	// Before any download, stall action must still pick a valid rung.
	d3 := p.decodeAction(pensieveRungs, &player.State{Video: v, LastRung: -1})
	if d3.Rung != 0 {
		t.Fatalf("decoded %+v", d3)
	}
}

func TestOracleAwareBeatsUnaware(t *testing.T) {
	v := testVideo(t)
	w := v.TrueSensitivity()
	var aware, unaware float64
	for _, scale := range []float64{0.4, 0.6, 0.8} {
		tr := trace.TestSet()[5].Scaled(scale)
		ra, err := player.Play(v, tr, NewOracle(tr, true), w, player.Config{})
		if err != nil {
			t.Fatal(err)
		}
		ru, err := player.Play(v, tr, NewOracle(tr, false), nil, player.Config{})
		if err != nil {
			t.Fatal(err)
		}
		aware += WeightedSessionQoE(ra.Rendering, w)
		unaware += WeightedSessionQoE(ru.Rendering, w)
	}
	if aware <= unaware {
		t.Fatalf("aware oracle %.3f not above unaware %.3f", aware, unaware)
	}
}

func TestOracleNoRebufferingWhenBandwidthSuffices(t *testing.T) {
	v := testVideo(t)
	tr := flatTrace(6e6, 3600)
	res, err := player.Play(v, tr, NewOracle(tr, false), nil, player.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.RebufferSec > 0 {
		t.Fatalf("oracle rebuffered %.2fs with ample bandwidth", res.RebufferSec)
	}
	if res.Rendering.MeanBitrateKbps() < 2500 {
		t.Fatalf("oracle bitrate %.0f too low with ample bandwidth", res.Rendering.MeanBitrateKbps())
	}
}

func TestSessionQoEBounds(t *testing.T) {
	v := testVideo(t)
	res, err := player.Play(v, flatTrace(6e6, 3600), NewFugu(), nil, player.Config{})
	if err != nil {
		t.Fatal(err)
	}
	q := SessionQoE(res.Rendering)
	if q < 0 || q > 1 {
		t.Fatalf("QoE %v out of range", q)
	}
	wq := WeightedSessionQoE(res.Rendering, v.TrueSensitivity())
	if wq < 0 || wq > 1 {
		t.Fatalf("weighted QoE %v out of range", wq)
	}
}

// TestVMAFTableMatchesProxy: the table the planners read off the video is
// the proxy formula bit for bit, on a generated video and on an excerpt.
func TestVMAFTableMatchesProxy(t *testing.T) {
	full := testVideo(t)
	clip, err := full.Excerpt(4, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []*video.Video{full, clip} {
		top := float64(v.HighestBitrate())
		for i := 0; i < v.NumChunks(); i++ {
			for r, kbps := range v.Ladder {
				got := v.VMAF(i, r)
				if want := video.VMAFProxy(float64(kbps), top, v.Chunks[i].Complexity); got != want {
					t.Fatalf("%s: VMAF(%d,%d) = %v, proxy %v", v.Name, i, r, got, want)
				}
				if got < 0 || got > 1 {
					t.Fatalf("%s: VMAF(%d,%d) = %v out of range", v.Name, i, r, got)
				}
			}
		}
	}
}
