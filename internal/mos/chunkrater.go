package mos

import (
	"fmt"

	"sensei/internal/qoe"
)

// This file is the client half of the closed feedback loop: per-chunk
// ground truth and the session-scoped rater the DASH client's Rater hook is
// backed by. The §4 studies rate whole renderings after the fact; a closed
// loop instead collects one lightweight in-player rating per rendered
// chunk, which is what makes the evidence localizable to a chunk window.

// ChunkTrueQoE returns the ground-truth QoE of one rendered chunk:
// 1 − w*_i d_i, the chunk's quality deficit weighted by the video's latent
// sensitivity at that chunk, clamped to [0,1]. It is the per-chunk
// restriction of TrueQoE — averaging it over all chunks of a rendering
// recovers (up to the final clamp) the whole-video ground truth — and, like
// TrueQoE, it is latent: production systems observe it only through noisy
// rater samples.
func ChunkTrueQoE(r *qoe.Rendering, i int) float64 {
	d := qoe.ChunkDeficit(qoe.DefaultQualityParams(), r, i)
	q := 1 - r.Video.TrueSensitivity()[i]*d
	if q < 0 {
		return 0
	}
	if q > 1 {
		return 1
	}
	return q
}

// TryRateChunk simulates one in-player chunk rating: the rater scores the
// just-rendered chunk i on the Likert scale, subject to the same integrity
// filtering as a survey assignment (a distracted rater produces nothing).
// Like tryRate, the outcome is a pure function of (rater, slot, chunk
// experience) — order-independent, so concurrent sessions rating through
// the same population stay bit-reproducible.
func (r *Rater) TryRateChunk(rendering *qoe.Rendering, i, slot int) (rating int, ok bool) {
	return r.tryRate(ChunkTrueQoE(rendering, i), slot)
}

// sessionSlotStride spaces the slot ranges of per-session raters so that no
// two sessions (or chunks within a session) share an event slot; it is
// comfortably above any real chunk count.
const sessionSlotStride = 1 << 20

// SessionRater is one streaming session's feedback persona: a single rater
// drawn from the population, with a private slot range keyed by the session
// index, rating each rendered chunk as it plays. It implements the DASH
// client's Rater hook shape — RateChunk(rendering, chunk) — and is safe for
// the client's sequential use; distinct sessions get distinct raters (round
// robin over the pool) and disjoint slot ranges, so a whole fleet's ratings
// are a pure function of (population seed, session index, playback).
type SessionRater struct {
	rater    *Rater
	slotBase int
}

// SessionRater returns session k's feedback persona.
func (p *Population) SessionRater(session int) (*SessionRater, error) {
	if session < 0 {
		return nil, fmt.Errorf("mos: negative session index %d", session)
	}
	return &SessionRater{
		rater:    &p.raters[session%len(p.raters)],
		slotBase: session * sessionSlotStride,
	}, nil
}

// RateChunk rates the just-rendered chunk i of the (possibly still partial)
// rendering, or reports ok=false when the rater skipped it.
func (s *SessionRater) RateChunk(rendering *qoe.Rendering, i int) (rating int, ok bool) {
	return s.rater.TryRateChunk(rendering, i, s.slotBase+i)
}
