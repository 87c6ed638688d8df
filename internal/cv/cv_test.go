package cv

import (
	"math"
	"testing"

	"sensei/internal/stats"
	"sensei/internal/video"
)

func TestAllModelsScoreEveryChunk(t *testing.T) {
	v, err := video.ByName("Tank")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range All() {
		s := m.Score(v)
		if len(s) != v.NumChunks() {
			t.Fatalf("%s scored %d chunks of %d", m.Name(), len(s), v.NumChunks())
		}
		for i, x := range s {
			if x < 0 || x > 1 || math.IsNaN(x) {
				t.Fatalf("%s chunk %d score %v", m.Name(), i, x)
			}
		}
	}
}

func TestModelNamesDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range All() {
		if seen[m.Name()] {
			t.Fatalf("duplicate model name %q", m.Name())
		}
		seen[m.Name()] = true
	}
	if len(seen) != 3 {
		t.Fatalf("expected 3 models, got %d", len(seen))
	}
}

func TestCVModelsTrackMotionNotAttention(t *testing.T) {
	// Appendix D: CV importance must correlate with motion/complexity far
	// better than with the true sensitivity, averaged over the catalog.
	videos := video.TestSet()
	for _, m := range All() {
		var withMotion, withTruth float64
		for _, v := range videos {
			scores := m.Score(v)
			motion := make([]float64, v.NumChunks())
			for i, c := range v.Chunks {
				motion[i] = 0.6*c.Motion + 0.4*c.Complexity
			}
			withMotion += stats.Spearman(scores, motion)
			withTruth += stats.Spearman(scores, v.TrueSensitivity())
		}
		withMotion /= float64(len(videos))
		withTruth /= float64(len(videos))
		if withTruth >= withMotion {
			t.Errorf("%s tracks truth (%.2f) better than visual features (%.2f); Appendix-D premise broken",
				m.Name(), withTruth, withMotion)
		}
		if withTruth > 0.6 {
			t.Errorf("%s correlates %.2f with true sensitivity; should be a poor predictor", m.Name(), withTruth)
		}
	}
}

func TestScoresPeakNormalized(t *testing.T) {
	v, err := video.ByName("Animal")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range All() {
		s := m.Score(v)
		if got := stats.Max(s); math.Abs(got-1) > 1e-9 {
			t.Errorf("%s max score %v, want 1", m.Name(), got)
		}
	}
}
