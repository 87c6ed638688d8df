// Package cv implements the computer-vision baselines of Appendix D: video
// highlight/summarization models (AMVM, DSN, Video2GIF) repurposed to guess
// per-chunk quality sensitivity. The paper shows these models track
// information richness and visual salience rather than quality sensitivity,
// so their scores correlate poorly with the user-study weights (Fig 20).
//
// Standing in for the trained vision models are heuristics over the
// synthetic content features with exactly the inductive biases the paper
// identifies: they reward object-rich, dynamic, diverse segments.
package cv

import (
	"sensei/internal/stats"
	"sensei/internal/video"
)

// Model scores each chunk of a video for "importance" in [0,1].
type Model interface {
	// Name identifies the model in experiment output.
	Name() string
	// Score returns one importance score per chunk.
	Score(v *video.Video) []float64
}

// AMVM mimics an attention-based user-experience model driven by visual
// richness: it scores chunks by spatial complexity (object/texture density),
// lightly modulated by motion.
type AMVM struct{}

// Name implements Model.
func (AMVM) Name() string { return "AMVM" }

// Score implements Model.
func (AMVM) Score(v *video.Video) []float64 {
	out := make([]float64, v.NumChunks())
	for i, c := range v.Chunks {
		out[i] = stats.Clamp(0.75*c.Complexity+0.25*c.Motion, 0, 1)
	}
	return normalizePeak(out)
}

// DSN mimics a deep summarization network trained with a
// diversity-representativeness reward: it rewards chunks that differ most
// from their neighbourhood (novelty) and carry motion.
type DSN struct{}

// Name implements Model.
func (DSN) Name() string { return "DSN" }

// Score implements Model.
func (DSN) Score(v *video.Video) []float64 {
	n := v.NumChunks()
	out := make([]float64, n)
	for i, c := range v.Chunks {
		// Novelty: distance of this chunk's feature vector from the mean of
		// a +-2 chunk window.
		var meanM, meanC float64
		var cnt float64
		for k := i - 2; k <= i+2; k++ {
			if k < 0 || k >= n || k == i {
				continue
			}
			meanM += v.Chunks[k].Motion
			meanC += v.Chunks[k].Complexity
			cnt++
		}
		novelty := 0.0
		if cnt > 0 {
			meanM /= cnt
			meanC /= cnt
			novelty = absF(c.Motion-meanM) + absF(c.Complexity-meanC)
		}
		out[i] = stats.Clamp(0.5*novelty+0.5*c.Motion, 0, 1)
	}
	return normalizePeak(out)
}

// Video2GIF mimics a highlight detector trained on GIF-worthy moments: it
// strongly rewards motion peaks.
type Video2GIF struct{}

// Name implements Model.
func (Video2GIF) Name() string { return "Video2GIF" }

// Score implements Model.
func (Video2GIF) Score(v *video.Video) []float64 {
	out := make([]float64, v.NumChunks())
	for i, c := range v.Chunks {
		out[i] = stats.Clamp(c.Motion*c.Motion, 0, 1)
	}
	return normalizePeak(out)
}

// All returns the three Appendix-D models.
func All() []Model {
	return []Model{AMVM{}, DSN{}, Video2GIF{}}
}

// normalizePeak rescales scores so the maximum is 1 (summarizers rank
// relative importance).
func normalizePeak(xs []float64) []float64 {
	var max float64
	for _, x := range xs {
		if x > max {
			max = x
		}
	}
	if max == 0 {
		return xs
	}
	for i := range xs {
		xs[i] /= max
	}
	return xs
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
