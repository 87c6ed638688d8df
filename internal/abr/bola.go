package abr

import (
	"math"

	"sensei/internal/player"
)

// BOLA is the Lyapunov-optimization buffer-based ABR of Spiteri et al.
// (INFOCOM'16), cited by the paper's related work as a representative
// buffer-based algorithm and shipped in the DASH reference player. For
// each chunk it maximizes (V·utility + V·gp − buffer) / size over the
// ladder, where utility is the log-bitrate utility of a rung.
//
// BOLA ignores content and throughput history entirely (like BBA), but its
// utility shaping makes it climb the ladder faster at moderate buffers.
type BOLA struct {
	// MaxBufferSec is the buffer the parameters are derived for
	// (default 60, matching the player's cap).
	MaxBufferSec float64
}

// NewBOLA returns a BOLA tuned for the default 60-second player buffer.
func NewBOLA() *BOLA { return &BOLA{MaxBufferSec: 60} }

// Name implements player.Algorithm.
func (b *BOLA) Name() string { return "BOLA" }

// Decide implements player.Algorithm.
func (b *BOLA) Decide(s *player.State) player.Decision {
	ladder := s.Video.Ladder
	// Log utilities normalized so the lowest rung has utility 0.
	lowest := float64(ladder[0])
	utility := func(kbps int) float64 { return math.Log(float64(kbps) / lowest) }
	maxBuf := b.MaxBufferSec
	if maxBuf <= 0 {
		maxBuf = 60
	}
	// Standard derivation (Spiteri et al. §IV): choose the Lyapunov control
	// parameter V and the gamma·p term gp so the lowest rung is picked at
	// one chunk of buffer and the highest at the buffer cap.
	chunkSec := 4.0
	uMax := utility(ladder[len(ladder)-1])
	gp := (uMax*chunkSec/(maxBuf-chunkSec) + uMax) / 2
	v := (maxBuf - chunkSec) / (uMax + gp) / chunkSec

	best := 0
	bestScore := math.Inf(-1)
	for i, kbps := range ladder {
		// Score in buffer-time units; size proxy is the nominal bitrate
		// (BOLA's formulation uses segment sizes; nominal bitrate keeps
		// the decision content-agnostic, as the published algorithm is).
		score := (v*4.0*(utility(kbps)+gp) - s.BufferSec) / float64(kbps)
		if score > bestScore {
			bestScore = score
			best = i
		}
	}
	return player.Decision{Rung: best}
}

// Compile-time interface check.
var _ player.Algorithm = (*BOLA)(nil)
