package abr

import (
	"bytes"
	"hash/fnv"
	"strings"
	"testing"

	"sensei/internal/player"
	"sensei/internal/trace"
	"sensei/internal/video"
)

func trainedAgent(t *testing.T) *Pensieve {
	t.Helper()
	full, err := video.ByName("Soccer1")
	if err != nil {
		t.Fatal(err)
	}
	v, err := full.Excerpt(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPensieve(99)
	if _, err := p.Train([]*video.Video{v}, trace.TrainingSet(8, 5), nil, TrainConfig{Episodes: 120}); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPolicyRoundTrip(t *testing.T) {
	p := trainedAgent(t)
	var buf bytes.Buffer
	if err := p.SavePolicy(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPolicy(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.trained {
		t.Fatal("loaded policy not marked trained")
	}
	// The restored policy must decide identically to the original.
	v := testVideo(t)
	tr := trace.TestSet()[4]
	a, err := player.Play(v, tr, p, nil, player.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := player.Play(v, tr, loaded, nil, player.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rendering.Rungs {
		if a.Rendering.Rungs[i] != b.Rendering.Rungs[i] {
			t.Fatalf("decision diverged at chunk %d", i)
		}
	}
}

func TestSavePolicyRefusesUntrained(t *testing.T) {
	p := NewPensieve(1)
	var buf bytes.Buffer
	if err := p.SavePolicy(&buf); err == nil {
		t.Fatal("untrained policy saved")
	}
}

func TestLoadPolicyRejectsCorruption(t *testing.T) {
	cases := []string{
		`not json`,
		`{"version": 9, "horizon": 5, "hidden": 48, "weights": []}`,
		`{"version": 1, "horizon": 0, "hidden": 48, "weights": []}`,
		`{"version": 1, "horizon": 5, "hidden": 48, "weights": [[1,2],[3]]}`,
	}
	for i, c := range cases {
		if _, err := LoadPolicy(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestLoadPolicySensitivityVariant(t *testing.T) {
	full, err := video.ByName("Tank")
	if err != nil {
		t.Fatal(err)
	}
	v, err := full.Excerpt(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	p := NewSenseiPensieve(7)
	if _, err := p.Train([]*video.Video{v}, trace.TrainingSet(8, 6), nil, TrainConfig{Episodes: 80}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.SavePolicy(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPolicy(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Sensitivity {
		t.Fatal("sensitivity flag lost")
	}
	if loaded.actionCount() != pensieveRungs+2 {
		t.Fatal("action space lost")
	}
}

// TestTrainedPolicyBytesGolden pins Train's output to policy bytes hashed
// at the commit before the trainer's rollout became a driver of
// player.Playback (055c784): same seeds, same fixtures, identical
// SavePolicy encoding. Any drift in the rollout's buffer, stall or history
// arithmetic — or in the order it consumes the RNG — changes a gradient and
// with it every weight.
func TestTrainedPolicyBytesGolden(t *testing.T) {
	full, err := video.ByName("Soccer1")
	if err != nil {
		t.Fatal(err)
	}
	// 24 chunks: long enough for fast training traces to fill the 60 s
	// buffer, so the full-buffer wait is part of what is pinned.
	v, err := full.Excerpt(0, 24)
	if err != nil {
		t.Fatal(err)
	}
	videos := []*video.Video{v}
	weights := map[string][]float64{v.Name: v.TrueSensitivity()}
	cfg := TrainConfig{Episodes: 80, EvalInterval: 40}
	for _, c := range []struct {
		agent   *Pensieve
		weights map[string][]float64
		want    uint64
	}{
		{NewPensieve(99), nil, 0x27bab9d5f5848a39},
		{NewSenseiPensieve(7), weights, 0xb199eef7e7c43968},
	} {
		if _, err := c.agent.Train(videos, trace.TrainingSet(8, 5), c.weights, cfg); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := c.agent.SavePolicy(&buf); err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(buf.Bytes())
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s: policy bytes hash %#016x, want %#016x", c.agent.Name(), got, c.want)
		}
	}
}
