package qoe

import (
	"math"

	"sensei/internal/video"
)

// This file provides closed-form visual-quality proxies standing in for the
// pixel-based metrics the paper's baselines consume (VMAF for KSQI, QP for
// P.1203, STRRED for LSTM-QoE). Real metric implementations need decoded
// frames; the proxies are driven by the synthetic content model instead,
// preserving the property that matters for the reproduction: they respond
// to pixel-level complexity and motion, not to the latent attention signal.
// The VMAF proxy itself is video.VMAFProxy, so each video can precompute
// its table; the QP and STRRED proxies derive from it.

// ChunkVMAF returns the VMAF proxy (video.VMAFProxy) of chunk i of
// rendering r.
func ChunkVMAF(r *Rendering, i int) float64 {
	return r.Video.VMAF(i, r.Rungs[i])
}

// QPProxy returns a quantization-parameter-like distortion indicator in
// [0,1] (higher = more distortion), the signal P.1203's bitstream mode
// consumes. It is the complement of the VMAF proxy with a mild floor.
func QPProxy(bitrateKbps, topKbps float64, complexity float64) float64 {
	return 1 - video.VMAFProxy(bitrateKbps, topKbps, complexity)
}

// STRREDProxy returns a spatio-temporal distortion score in [0,1] (higher =
// worse), the signal LSTM-QoE consumes. STRRED emphasizes temporal
// information, so the proxy scales distortion by the chunk's motion — which
// is exactly the inductive bias §2.3 shows to be wrong: it treats dynamic
// scenes as the sensitive ones.
func STRREDProxy(bitrateKbps, topKbps float64, complexity, motion float64) float64 {
	distortion := 1 - video.VMAFProxy(bitrateKbps, topKbps, complexity)
	return distortion * (0.3 + 0.7*motion)
}

// ChunkSTRRED returns the STRRED proxy of chunk i of rendering r.
func ChunkSTRRED(r *Rendering, i int) float64 {
	v := r.Video
	c := v.Chunks[i]
	return STRREDProxy(float64(v.Ladder[r.Rungs[i]]), float64(v.HighestBitrate()), c.Complexity, c.Motion)
}

// QualityParams are the coefficients of the simplified per-chunk quality
// model q(b, t) used both as the ground-truth perceptual kernel and as the
// per-chunk term inside the additive QoE models (Eq. 1). Fugu's objective
// (Eq. 3) evaluates exactly this function.
type QualityParams struct {
	// StallPenalty is the quality deduction for the first second of
	// stalling; longer stalls follow a square-root law (each additional
	// second annoys less than the first, but every interruption restarts
	// the clock — two 1-second stalls hurt more than one 2-second stall).
	StallPenalty float64
	// SwitchPenalty scales the deduction for |VMAF_i − VMAF_{i−1}|.
	SwitchPenalty float64
}

// DefaultQualityParams mirrors the rebuffering-vs-bitrate balance implied by
// the paper's user studies (Fig 1/4): a 1-second stall on a 25-second clip
// moves MOS by tenths of the full scale, while a quality switch costs a
// quarter of the quality step it spans (KSQI-family models keep this term
// well below the bitrate term, or smooth ladders would never be climbed).
func DefaultQualityParams() QualityParams {
	return QualityParams{StallPenalty: 1.2, SwitchPenalty: 0.25}
}

// StallCost returns the quality deduction for stallSec seconds of stalling
// before one chunk.
func (p QualityParams) StallCost(stallSec float64) float64 {
	if stallSec <= 0 {
		return 0
	}
	return p.StallPenalty * math.Sqrt(stallSec)
}

// stallLengthScale implements the peak-end effect observed in QoE studies
// (and implicit in the paper's Fig 1, where one 1-second stall moves MOS by
// ~0.3 on a 25-second clip): a stall's impact on the overall impression
// dilutes sub-linearly with video length, not proportionally. Per-chunk
// stall costs are scaled by sqrt(N)/1.75 so that, after the 1/N averaging
// in MeanQuality, a single incident's QoE impact decays like 1/sqrt(N).
func stallLengthScale(numChunks int) float64 {
	if numChunks < 1 {
		numChunks = 1
	}
	return math.Sqrt(float64(numChunks)) / 1.75
}

// ChunkDeficit returns d_i, the quality degradation of chunk i relative to
// pristine playback: visual deficit (1 − VMAF), the length-scaled stall
// cost, and the switch cost. Deficits are what sensitivity weights
// modulate: QoE = 1 − (1/N) Σ w_i d_i. A pristine chunk has zero deficit.
func ChunkDeficit(p QualityParams, r *Rendering, i int) float64 {
	d := 1 - ChunkVMAF(r, i)
	d += stallLengthScale(len(r.Rungs)) * p.StallCost(r.StallSec[i])
	if i > 0 {
		d += p.SwitchPenalty * math.Abs(ChunkVMAF(r, i)-ChunkVMAF(r, i-1))
	}
	return d
}

// QoE01 returns the deficit-form QoE in [0,1]: 1 − (1/N) Σ w_i d_i, clamped.
// A nil weight vector means uniform (content-blind) weighting; a wrong-length
// vector falls back to uniform as well — callers should validate first.
// This is the shared quality kernel: the ground truth uses it with the
// latent sensitivity, SENSEI's QoE model with profiled weights, and the
// baseline ABR objectives with uniform weights.
func QoE01(p QualityParams, r *Rendering, weights []float64) float64 {
	n := len(r.Rungs)
	if n == 0 {
		return 0
	}
	if weights != nil && len(weights) != n {
		weights = nil
	}
	var sum float64
	for i := 0; i < n; i++ {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		sum += w * ChunkDeficit(p, r, i)
	}
	q := 1 - sum/float64(n)
	if q < 0 {
		return 0
	}
	if q > 1 {
		return 1
	}
	return q
}
