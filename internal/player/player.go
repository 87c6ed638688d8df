// Package player models DASH video playback: buffer dynamics, rebuffering,
// and SENSEI's proactive rebuffering action. Playback (playback.go) is the
// model — the standard discrete-event one used by the ABR literature and by
// the paper's own emulation methodology (§2.2): playback drains the buffer
// while each chunk downloads; an empty buffer stalls playback until the
// in-flight chunk lands; a full buffer pauses downloads. Play drives it
// against a throughput trace and produces the qoe.Rendering that the QoE
// models and user studies consume; dash.Client drives the same model over
// HTTP.
package player

import (
	"fmt"

	"sensei/internal/qoe"
	"sensei/internal/sensitivity"
	"sensei/internal/trace"
	"sensei/internal/video"
)

// Decision is an ABR algorithm's choice for the next chunk.
type Decision struct {
	// Rung is the ladder index to download the next chunk at.
	Rung int
	// PreStallSec asks the player to deliberately pause playback for this
	// long before the chunk plays, even though the buffer is not empty —
	// SENSEI's new adaptation action (§5.1). The player implements it the
	// way §6 describes: the downloaded chunk is withheld from the playback
	// buffer for the given delay while downloading continues, so the
	// buffer gains the stall duration.
	PreStallSec float64
}

// State is the observable player state handed to the ABR algorithm before
// each chunk download. It mirrors Fig 10: buffer, throughput history, chunk
// sizes, and — uniquely to SENSEI — the sensitivity weights of upcoming
// chunks.
type State struct {
	// Video is the content being streamed (chunk sizes, ladder).
	Video *video.Video
	// ChunkIndex is the next chunk to download (0-based).
	ChunkIndex int
	// BufferSec is the current playback buffer level in seconds.
	BufferSec float64
	// LastRung is the rung of the previously downloaded chunk, or -1.
	LastRung int
	// ThroughputBps holds recent per-chunk measured throughputs, most
	// recent last. Empty before the first download.
	ThroughputBps []float64
	// DownloadSec holds the matching download durations.
	DownloadSec []float64
	// Weights holds per-chunk sensitivity weights for the whole video, or
	// nil when the video was not profiled. Sensitivity-aware algorithms
	// read Weights[ChunkIndex:]; others ignore it. When Sensitivity is set
	// the two always agree — Weights is Sensitivity.Weights.
	Weights []float64
	// Sensitivity is the epoch-stamped profile snapshot in force for this
	// decision. The snapshot is immutable: algorithms that plan across the
	// whole horizon read it once per Decide and can never observe a
	// mid-plan refresh tearing the weights. It is nil only for legacy
	// callers that populate Weights directly.
	Sensitivity *sensitivity.Profile
	// TraceTimeSec is the current position on the throughput trace clock.
	// Online algorithms must ignore it; it exists so the idealized offline
	// oracles of §2.4 (which are defined to know the whole trace) can look
	// up true future throughput.
	TraceTimeSec float64
}

// SensitivityWeights returns the weight vector in force for this decision:
// the profile snapshot when one is attached, the legacy slice otherwise.
// Algorithms call it once per Decide so a live refresh can never tear a
// plan in progress.
func (s *State) SensitivityWeights() []float64 {
	if s.Sensitivity != nil {
		return s.Sensitivity.Weights
	}
	return s.Weights
}

// Algorithm selects the delivery of the next chunk from player state.
type Algorithm interface {
	// Name identifies the algorithm in experiment output.
	Name() string
	// Decide picks the next chunk's rung and optional proactive stall.
	Decide(s *State) Decision
}

// Config parameterizes a playback session.
type Config struct {
	// MaxBufferSec caps the playback buffer (default 60, as in DASH.js).
	MaxBufferSec float64
	// HistoryLen bounds the throughput history given to the ABR
	// (default 8).
	HistoryLen int
	// MaxPreStallSec caps a single proactive stall (default 2, the
	// paper's action space {0,1,2}).
	MaxPreStallSec float64
}

func (c *Config) defaults() {
	if c.MaxBufferSec <= 0 {
		c.MaxBufferSec = 60
	}
	if c.HistoryLen <= 0 {
		c.HistoryLen = 8
	}
	if c.MaxPreStallSec <= 0 {
		c.MaxPreStallSec = 2
	}
}

// Result summarizes one playback session.
type Result struct {
	// Rendering is the delivered per-chunk quality description.
	Rendering *qoe.Rendering
	// StartupSec is the join delay (first chunk download time); it is not
	// counted as rebuffering.
	StartupSec float64
	// RebufferSec is total mid-playback stalling, including proactive
	// stalls.
	RebufferSec float64
	// ProactiveStallSec is the share of RebufferSec initiated by the ABR.
	ProactiveStallSec float64
	// BitsDownloaded is the session's total traffic.
	BitsDownloaded float64
	// WallClockSec is the total session duration on the trace clock.
	WallClockSec float64
	// ChunkEpochs records, per chunk, the sensitivity-profile epoch in
	// force for that chunk's decision — all equal for a frozen source,
	// stepping up mid-session under a live refresh.
	ChunkEpochs []uint64
}

// Play streams v over tr using alg and returns the session result. Weights
// may be nil; when present it must have one entry per chunk. It is the
// frozen-profile convenience wrapper over PlayWithSource.
func Play(v *video.Video, tr *trace.Trace, alg Algorithm, weights []float64, cfg Config) (*Result, error) {
	return PlayWithSource(v, tr, alg, sensitivity.Freeze(v.Name, weights), cfg)
}

// PlayWithSource streams v over tr, taking one sensitivity snapshot from
// src before every chunk decision — the simulator half of the live
// sensitivity plane. A frozen source reproduces Play exactly; a versioned
// or scripted source lets the profile change mid-session, with each
// decision seeing one immutable snapshot.
func PlayWithSource(v *video.Video, tr *trace.Trace, alg Algorithm, src sensitivity.Source, cfg Config) (*Result, error) {
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("player: %w", err)
	}
	pb, err := NewPlayback(v, cfg)
	if err != nil {
		return nil, err
	}
	if src == nil {
		src = sensitivity.Freeze(v.Name, nil)
	}

	// The simulator's delivery: time passes on the trace cursor, and a
	// chunk's acquisition is exactly its download.
	cur := trace.NewCursor(tr)
	for i := 0; i < v.NumChunks(); i++ {
		prof, _ := src.Snapshot()
		d, wait, err := pb.Decide(alg, prof, cur.Now())
		if err != nil {
			return nil, err
		}
		cur.Advance(wait)
		size := v.ChunkSizeBits(i, d.Rung)
		dl := cur.Download(size)
		pb.Deliver(d.Rung, size, dl, dl)
	}
	return pb.Finish(cur.Now())
}
