package sensei_test

import (
	"context"
	"errors"
	"net/http"
	"testing"

	"sensei/internal/abr"
	"sensei/internal/crowd"
	"sensei/internal/mos"
	"sensei/internal/origin"
	"sensei/internal/player"
	"sensei/internal/qoe"
	"sensei/internal/stats"
	"sensei/internal/trace"
	"sensei/internal/video"
	"sensei/internal/wire"
)

// TestPipelineWeightsPredictFreshRenderings is the system's core claim as
// one test: weights profiled from crowdsourced ratings of *incident clips*
// must make the SENSEI QoE model accurate on *unrelated ABR renderings* of
// the same video.
func TestPipelineWeightsPredictFreshRenderings(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline test is slow")
	}
	full, err := video.ByName("Wrestling")
	if err != nil {
		t.Fatal(err)
	}
	v, err := full.Excerpt(0, 20)
	if err != nil {
		t.Fatal(err)
	}
	pop, err := mos.NewPopulation(mos.PopulationConfig{Size: 20000, Seed: 0x1407})
	if err != nil {
		t.Fatal(err)
	}
	profile, err := crowd.NewProfiler(pop).Profile(v)
	if err != nil {
		t.Fatal(err)
	}

	model := qoe.NewSenseiModel(&qoe.KSQI{}, map[string][]float64{v.Name: profile.Weights})
	blind := qoe.NewSenseiModel(&qoe.KSQI{}, map[string][]float64{v.Name: uniform(v.NumChunks())})

	// Fresh renderings the profiler never saw: random ABR-like deliveries.
	rng := stats.NewRNG(0x1408)
	var pWeighted, pBlind, truth []float64
	for i := 0; i < 60; i++ {
		r := qoe.NewRendering(v)
		for c := range r.Rungs {
			r.Rungs[c] = rng.Intn(len(v.Ladder))
		}
		if rng.Bool(0.5) {
			r.StallSec[rng.Intn(v.NumChunks())] = float64(1 + rng.Intn(2))
		}
		pWeighted = append(pWeighted, model.Predict(r))
		pBlind = append(pBlind, blind.Predict(r))
		truth = append(truth, mos.TrueQoE(r))
	}
	rWeighted := stats.Pearson(pWeighted, truth)
	rBlind := stats.Pearson(pBlind, truth)
	if rWeighted < 0.85 {
		t.Fatalf("profiled-weight model PLCC %.2f too low", rWeighted)
	}
	if rWeighted <= rBlind {
		t.Fatalf("profiled weights (%.3f) no better than uniform weights (%.3f)", rWeighted, rBlind)
	}
}

func uniform(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// TestPipelineDeterminism re-runs profiling and streaming end to end and
// demands bit-identical outputs — the property the experiment harness
// depends on.
func TestPipelineDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline test is slow")
	}
	run := func() ([]float64, []int) {
		full, err := video.ByName("Girl")
		if err != nil {
			t.Fatal(err)
		}
		v, err := full.Excerpt(0, 12)
		if err != nil {
			t.Fatal(err)
		}
		pop, err := mos.NewPopulation(mos.PopulationConfig{Size: 8000, Seed: 0x1409})
		if err != nil {
			t.Fatal(err)
		}
		p, err := crowd.NewProfiler(pop).Profile(v)
		if err != nil {
			t.Fatal(err)
		}
		tr := trace.Generate(trace.GenSpec{Name: "d", Kind: trace.KindHSDPA, MeanBps: 1.1e6, Seconds: 600, Seed: 3})
		res, err := player.Play(v, tr, abr.NewSenseiFugu(), p.Weights, player.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return p.Weights, res.Rendering.Rungs
	}
	w1, r1 := run()
	w2, r2 := run()
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatalf("weight %d diverged: %v vs %v", i, w1[i], w2[i])
		}
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("rung %d diverged", i)
		}
	}
}

// TestWeightDirFeedsManifest exercises the deployment path: profile into a
// weight directory as cmd/weightlib does → boot an origin on it → fetch the
// manifest → client-side parse → ABR consumption. The origin must serve the
// campaign's weights without running a campaign of its own.
func TestWeightDirFeedsManifest(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline test is slow")
	}
	full, err := video.ByName("Space")
	if err != nil {
		t.Fatal(err)
	}
	v, err := full.Excerpt(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	pop, err := mos.NewPopulation(mos.PopulationConfig{Size: 8000, Seed: 0x140a})
	if err != nil {
		t.Fatal(err)
	}
	profiler := crowd.NewProfiler(pop)
	dir := t.TempDir()
	p, err := origin.NewWeightService(dir, func(v *video.Video) ([]float64, error) {
		p, err := profiler.Profile(v)
		if err != nil {
			return nil, err
		}
		return p.Weights, nil
	}, nil).Get(v)
	if err != nil {
		t.Fatal(err)
	}

	tr := trace.Generate(trace.GenSpec{Name: "m", Kind: trace.KindFCC, MeanBps: 1.5e6, Seconds: 600, Seed: 9})
	o, err := origin.New(origin.Config{
		Catalog: []*video.Video{v},
		Profile: func(v *video.Video) ([]float64, error) {
			t.Errorf("origin ran a campaign for %s", v.Name)
			return nil, errors.New("no campaign")
		},
		WeightDir:    dir,
		Traces:       map[string]*trace.Trace{tr.Name: tr},
		DefaultTrace: tr.Name,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	var a wire.Answer
	if err := o.Call(context.Background(), &wire.Call{Route: wire.RouteManifest, Video: v.Name}, &a); err != nil || a.Status != http.StatusOK {
		t.Fatalf("manifest: status %d, %v", a.Status, err)
	}
	var mpd wire.MPD
	if err := mpd.Parse(a.Body); err != nil {
		t.Fatal(err)
	}
	weights, err := mpd.Weights()
	if err != nil {
		t.Fatal(err)
	}

	// The served weights must drive the ABR identically to the profiled ones.
	want, err := player.Play(v, tr, abr.NewSenseiFugu(), p.Weights, player.Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := player.Play(v, tr, abr.NewSenseiFugu(), weights, player.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Rendering.Rungs {
		if want.Rendering.Rungs[i] != got.Rendering.Rungs[i] {
			t.Fatalf("manifest-carried weights changed decisions at chunk %d", i)
		}
	}
	if st := o.Stats(); st.ProfilesFromDisk != 1 || st.ProfilesComputed != 0 {
		t.Fatalf("origin loaded %d profiles from disk and computed %d, want 1 and 0", st.ProfilesFromDisk, st.ProfilesComputed)
	}
}

// TestAllAlgorithmsProduceValidSessions fuzzes every ABR over varied
// traces and checks session invariants.
func TestAllAlgorithmsProduceValidSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline test is slow")
	}
	full, err := video.ByName("Discus")
	if err != nil {
		t.Fatal(err)
	}
	v, err := full.Excerpt(0, 12)
	if err != nil {
		t.Fatal(err)
	}
	w := v.TrueSensitivity()
	algos := []struct {
		alg player.Algorithm
		w   []float64
	}{
		{abr.NewBBA(), nil},
		{abr.NewBOLA(), nil},
		{abr.NewFugu(), nil},
		{abr.NewSenseiFugu(), w},
		{abr.NewPensieve(3), nil},
		{abr.NewSenseiPensieve(3), w},
	}
	rng := stats.NewRNG(0x140b)
	for trial := 0; trial < 6; trial++ {
		kind := trace.KindFCC
		if rng.Bool(0.5) {
			kind = trace.KindHSDPA
		}
		tr := trace.Generate(trace.GenSpec{
			Name: "fuzz", Kind: kind, MeanBps: rng.Range(0.4e6, 6e6), Seconds: 400, Seed: rng.Uint64(),
		})
		for _, a := range algos {
			res, err := player.Play(v, tr, a.alg, a.w, player.Config{})
			if err != nil {
				t.Fatalf("%s on %s: %v", a.alg.Name(), tr.Name, err)
			}
			if err := res.Rendering.Validate(); err != nil {
				t.Fatalf("%s produced invalid rendering: %v", a.alg.Name(), err)
			}
			if q := mos.TrueQoE(res.Rendering); q < 0 || q > 1 {
				t.Fatalf("%s QoE %v out of range", a.alg.Name(), q)
			}
			if res.RebufferSec < 0 || res.BitsDownloaded <= 0 {
				t.Fatalf("%s produced nonsense session %+v", a.alg.Name(), res)
			}
		}
	}
}
