package qoe

import (
	"math"
	"testing"
	"testing/quick"

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

func TestNewRenderingIsPristine(t *testing.T) {
	v := soccer(t)
	r := NewRendering(v)
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.TotalStallSec() != 0 {
		t.Fatal("reference rendering has stalls")
	}
	if r.MeanBitrateKbps() != float64(v.HighestBitrate()) {
		t.Fatalf("mean bitrate %v", r.MeanBitrateKbps())
	}
	if r.SwitchCount() != 0 {
		t.Fatal("reference rendering has switches")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	v := soccer(t)
	r := NewRendering(v)
	r.Rungs[0] = 99
	if err := r.Validate(); err == nil {
		t.Error("out-of-range rung accepted")
	}
	r = NewRendering(v)
	r.StallSec[3] = -1
	if err := r.Validate(); err == nil {
		t.Error("negative stall accepted")
	}
	r = NewRendering(v)
	r.Rungs = r.Rungs[:2]
	if err := r.Validate(); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestWithStallAndRungDoNotMutate(t *testing.T) {
	v := soccer(t)
	r := NewRendering(v)
	s := r.WithStall(2, 1.5)
	if r.StallSec[2] != 0 {
		t.Fatal("WithStall mutated the receiver")
	}
	if s.StallSec[2] != 1.5 {
		t.Fatal("WithStall did not apply")
	}
	b := r.WithRung(4, 0)
	if r.Rungs[4] != len(v.Ladder)-1 || b.Rungs[4] != 0 {
		t.Fatal("WithRung wrong")
	}
}

func TestStallRatio(t *testing.T) {
	v := soccer(t)
	r := NewRendering(v).WithStall(0, 5)
	want := 5 / v.Duration().Seconds()
	if math.Abs(r.StallRatio()-want) > 1e-12 {
		t.Fatalf("stall ratio %v, want %v", r.StallRatio(), want)
	}
}

func TestVMAFProxyProperties(t *testing.T) {
	// Monotone in bitrate; 1.0 at the top; decreasing in complexity.
	for _, c := range []float64{0, 0.5, 1} {
		prev := -1.0
		for _, b := range []float64{300, 750, 1200, 1850, 2850} {
			v := video.VMAFProxy(b, 2850, c)
			if v <= prev {
				t.Fatalf("VMAF not increasing at b=%v c=%v", b, c)
			}
			if v < 0 || v > 1 {
				t.Fatalf("VMAF %v out of range", v)
			}
			prev = v
		}
		if got := video.VMAFProxy(2850, 2850, c); math.Abs(got-1) > 1e-12 {
			t.Fatalf("top-rung VMAF %v, want 1", got)
		}
	}
	if video.VMAFProxy(300, 2850, 0.9) >= video.VMAFProxy(300, 2850, 0.1) {
		t.Fatal("complex content should score lower at low bitrate")
	}
	if video.VMAFProxy(0, 2850, 0.5) != 0 || video.VMAFProxy(300, 0, 0.5) != 0 {
		t.Fatal("degenerate inputs should yield 0")
	}
}

func TestQPProxyComplementsVMAF(t *testing.T) {
	for _, b := range []float64{300, 1200, 2850} {
		if math.Abs(QPProxy(b, 2850, 0.5)+video.VMAFProxy(b, 2850, 0.5)-1) > 1e-12 {
			t.Fatal("QP + VMAF != 1")
		}
	}
}

func TestSTRREDWeightsMotion(t *testing.T) {
	lo := STRREDProxy(300, 2850, 0.5, 0.1)
	hi := STRREDProxy(300, 2850, 0.5, 0.9)
	if hi <= lo {
		t.Fatal("STRRED should grow with motion")
	}
	if STRREDProxy(2850, 2850, 0.5, 0.9) != 0 {
		t.Fatal("no distortion at top rung")
	}
}

func TestChunkQualityPenalties(t *testing.T) {
	v := soccer(t)
	p := DefaultQualityParams()
	base := NewRendering(v)
	stalled := base.WithStall(3, 2)
	if ChunkDeficit(p, stalled, 3) <= ChunkDeficit(p, base, 3) {
		t.Fatal("stall did not lower chunk quality")
	}
	dropped := base.WithRung(3, 0)
	if ChunkDeficit(p, dropped, 3) <= ChunkDeficit(p, base, 3) {
		t.Fatal("bitrate drop did not lower chunk quality")
	}
	// The chunk after a drop pays a switch penalty.
	if ChunkDeficit(p, dropped, 4) <= ChunkDeficit(p, base, 4) {
		t.Fatal("switch penalty missing")
	}
}

func TestQoE01ShiftsWithWeights(t *testing.T) {
	v := soccer(t)
	p := DefaultQualityParams()
	r := NewRendering(v).WithStall(4, 2)
	flat := make([]float64, v.NumChunks())
	for i := range flat {
		flat[i] = 1
	}
	base := QoE01(p, r, flat)
	if math.Abs(base-QoE01(p, r, nil)) > 1e-12 {
		t.Fatal("uniform weights should equal the unweighted kernel")
	}
	// Up-weighting the stalled chunk should lower QoE.
	heavy := append([]float64(nil), flat...)
	heavy[4] = 5
	if QoE01(p, r, heavy) >= base {
		t.Fatal("up-weighted stall should hurt more")
	}
	// Wrong-length weights fall back to uniform.
	if QoE01(p, r, flat[:3]) != QoE01(p, r, nil) {
		t.Fatal("bad weights should fall back to uniform")
	}
}

func TestChunkDeficitProperties(t *testing.T) {
	v := soccer(t)
	p := DefaultQualityParams()
	pristine := NewRendering(v)
	for i := 0; i < v.NumChunks(); i++ {
		if d := ChunkDeficit(p, pristine, i); math.Abs(d) > 1e-12 {
			t.Fatalf("pristine chunk %d deficit %v, want 0", i, d)
		}
	}
	if QoE01(p, pristine, v.TrueSensitivity()) != 1 {
		t.Fatal("pristine QoE should be exactly 1")
	}
	stalled := pristine.WithStall(3, 2)
	if ChunkDeficit(p, stalled, 3) <= 0 {
		t.Fatal("stall should create deficit")
	}
	dropped := pristine.WithRung(3, 0)
	if ChunkDeficit(p, dropped, 3) <= 0 {
		t.Fatal("bitrate drop should create deficit")
	}
}

// buildTrainingSet synthesizes rated renderings with known ground truth:
// random rungs/stalls scored by a weighted quality with per-video weights.
func buildTrainingSet(t *testing.T, n int, seed uint64) []Sample {
	t.Helper()
	rng := stats.NewRNG(seed)
	videos := video.TestSet()
	p := DefaultQualityParams()
	var out []Sample
	for i := 0; i < n; i++ {
		v := videos[rng.Intn(len(videos))]
		r := NewRendering(v)
		for c := range r.Rungs {
			r.Rungs[c] = rng.Intn(len(v.Ladder))
			// Sparse stalls, like real ABR output: the peak-end stall
			// scaling makes dense stalling saturate QoE at 0.
			if rng.Bool(0.03) {
				r.StallSec[c] = float64(1 + rng.Intn(2))
			}
		}
		truth := QoE01(p, r, v.TrueSensitivity())
		out = append(out, Sample{Rendering: r, TrueQoE: stats.Clamp(truth+0.01*rng.Norm(), 0, 1)})
	}
	return out
}

func TestKSQIFitsAndPredicts(t *testing.T) {
	samples := buildTrainingSet(t, 120, 41)
	k := &KSQI{}
	if err := k.Fit(samples[:90]); err != nil {
		t.Fatal(err)
	}
	ev := Evaluate(k, samples[90:])
	if ev.PLCC < 0.6 {
		t.Fatalf("KSQI PLCC %v too low", ev.PLCC)
	}
	if ev.Model != "KSQI" {
		t.Fatalf("name %q", ev.Model)
	}
}

func TestKSQIFitRejectsTinySets(t *testing.T) {
	k := &KSQI{}
	if err := k.Fit(buildTrainingSet(t, 3, 1)); err == nil {
		t.Fatal("expected error for tiny training set")
	}
}

func TestKSQIUnfittedFallback(t *testing.T) {
	v := soccer(t)
	k := &KSQI{}
	got := k.Predict(NewRendering(v))
	if got < 0.9 {
		t.Fatalf("pristine rendering fallback prediction %v", got)
	}
}

func TestSenseiModelFitImprovesCalibration(t *testing.T) {
	samples := buildTrainingSet(t, 120, 43)
	weights := map[string][]float64{}
	for _, v := range video.TestSet() {
		weights[v.Name] = v.TrueSensitivity()
	}
	s := NewSenseiModel(&KSQI{}, weights)
	before := Evaluate(s, samples[90:])
	if err := s.Fit(samples[:90]); err != nil {
		t.Fatal(err)
	}
	after := Evaluate(s, samples[90:])
	if after.MeanRelativeError > before.MeanRelativeError+0.02 {
		t.Fatalf("calibration hurt: %v -> %v", before.MeanRelativeError, after.MeanRelativeError)
	}
	if after.PLCC < 0.9 {
		t.Fatalf("SENSEI with true weights should be highly accurate, PLCC %v", after.PLCC)
	}
}

func TestSenseiModelFitNeedsWeightedSamples(t *testing.T) {
	s := NewSenseiModel(&KSQI{}, map[string][]float64{})
	if err := s.Fit(buildTrainingSet(t, 20, 44)); err == nil {
		t.Fatal("expected error when no sample has weights")
	}
}

func TestSenseiModelUsesWeights(t *testing.T) {
	samples := buildTrainingSet(t, 150, 47)
	k := &KSQI{}
	if err := k.Fit(samples); err != nil {
		t.Fatal(err)
	}
	weights := map[string][]float64{}
	for _, v := range video.TestSet() {
		weights[v.Name] = v.TrueSensitivity()
	}
	s := NewSenseiModel(k, weights)

	// On a stall placed at the most- vs least-sensitive chunk, SENSEI must
	// rank them correctly while KSQI cannot separate them.
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
	stallHi := NewRendering(v).WithStall(hi, 2)
	stallLo := NewRendering(v).WithStall(lo, 2)
	if s.Predict(stallHi) >= s.Predict(stallLo) {
		t.Fatal("SENSEI did not penalize the sensitive chunk more")
	}
	if math.Abs(k.Predict(stallHi)-k.Predict(stallLo)) > 1e-9 {
		t.Fatal("KSQI should be position-blind (same summary stats)")
	}
}

func TestSenseiModelFallsBackWithoutWeights(t *testing.T) {
	k := &KSQI{}
	s := NewSenseiModel(k, nil)
	v := soccer(t)
	r := NewRendering(v)
	if s.Predict(r) != k.Predict(r) {
		t.Fatal("missing weights should fall back to base")
	}
}

func TestP1203FitsAndPredicts(t *testing.T) {
	samples := buildTrainingSet(t, 150, 53)
	p := &P1203{Trees: 15, Seed: 1}
	if err := p.Fit(samples[:110]); err != nil {
		t.Fatal(err)
	}
	ev := Evaluate(p, samples[110:])
	if ev.PLCC < 0.5 {
		t.Fatalf("P.1203 PLCC %v too low", ev.PLCC)
	}
}

func TestP1203RejectsTinySets(t *testing.T) {
	p := &P1203{}
	if err := p.Fit(buildTrainingSet(t, 5, 3)); err == nil {
		t.Fatal("expected error")
	}
}

func TestLSTMQoEFitsAndPredicts(t *testing.T) {
	if testing.Short() {
		t.Skip("LSTM training is slow")
	}
	samples := buildTrainingSet(t, 80, 59)
	l := &LSTMQoE{Hidden: 6, Epochs: 15, Seed: 2}
	if err := l.Fit(samples[:60]); err != nil {
		t.Fatal(err)
	}
	ev := Evaluate(l, samples[60:])
	if ev.PLCC < 0.3 {
		t.Fatalf("LSTM-QoE PLCC %v too low", ev.PLCC)
	}
}

func TestEvaluateMetrics(t *testing.T) {
	samples := buildTrainingSet(t, 60, 61)
	k := &KSQI{}
	if err := k.Fit(samples); err != nil {
		t.Fatal(err)
	}
	ev := Evaluate(k, samples)
	if ev.MeanRelativeError < 0 || math.IsNaN(ev.MeanRelativeError) {
		t.Fatalf("bad error metric %v", ev.MeanRelativeError)
	}
	if ev.SRCC < -1 || ev.SRCC > 1 {
		t.Fatalf("SRCC %v", ev.SRCC)
	}
}

// Property: a chunk delivered at the top rung with no stall has the least
// deficit over all (rung, stall) combinations for that chunk.
func TestChunkQualityMaxAtPristineProperty(t *testing.T) {
	v := soccer(t)
	p := DefaultQualityParams()
	top := len(v.Ladder) - 1
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed | 1)
		i := 1 + rng.Intn(v.NumChunks()-1)
		prev := rng.Intn(len(v.Ladder))
		pristine := ChunkDeficit(p, NewRendering(v), i)
		for rung := 0; rung <= top; rung++ {
			r := NewRendering(v).WithRung(i-1, prev).WithRung(i, rung).WithStall(i, rng.Range(0, 4))
			if ChunkDeficit(p, r, i) < pristine-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
