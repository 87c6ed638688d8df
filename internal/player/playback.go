package player

import (
	"fmt"

	"sensei/internal/qoe"
	"sensei/internal/sensitivity"
	"sensei/internal/video"
)

// Playback is the one playback model: the buffer, stall, ledger and
// throughput-history arithmetic of a session, chunk by chunk. It is a pure
// state object — it never sleeps, does I/O or reads a clock — driven by
// whoever moves the bytes (PlayWithSource, dash.Client.Stream, Pensieve's
// trainer), each running
//
//	for each chunk: snapshot → Decide → wait → acquire → Deliver
//
// and free to suspend a session between any two steps. DESIGN.md, "One
// playback model, three drivers", has the contract.
type Playback struct {
	cfg      Config
	chunkDur float64
	res      Result
	rend     qoe.Rendering // res.Rendering points here

	next     int     // the chunk the next Decide / Deliver is for
	buffer   float64 // playback buffer, seconds
	lastRung int
	thr, dls []float64 // histories: cap cfg.HistoryLen, oldest first, one backing array
	st       State     // the one State every Decide reuses; aliases thr/dls
}

// NewPlayback starts a session of v at an empty buffer.
func NewPlayback(v *video.Video, cfg Config) (*Playback, error) {
	cfg.defaults()
	n := v.NumChunks()
	if n == 0 {
		return nil, fmt.Errorf("player: video %q has no chunks", v.Name)
	}
	h := cfg.HistoryLen
	hist := make([]float64, 2*h)
	p := &Playback{
		cfg:      cfg,
		chunkDur: video.ChunkDuration.Seconds(),
		res:      Result{ChunkEpochs: make([]uint64, n)},
		rend: qoe.Rendering{
			Video:    v,
			Rungs:    make([]int, n),
			StallSec: make([]float64, n),
		},
		lastRung: -1,
		thr:      hist[:0:h],
		dls:      hist[h : h : 2*h],
	}
	p.res.Rendering = &p.rend
	return p, nil
}

// BufferSec is the current playback buffer level in seconds.
func (p *Playback) BufferSec() float64 { return p.buffer }

// Rendering is the session so far: delivered chunks final, the rest zero.
func (p *Playback) Rendering() *qoe.Rendering { return p.res.Rendering }

// Decide runs alg for the next chunk under prof, the immutable profile
// snapshot in force for this decision, and applies the decision's
// proactive stall. traceTimeSec becomes State.TraceTimeSec (drivers
// without a trace pass 0).
//
// The returned Decision is what the player will do, not what alg asked
// for: PreStallSec is clamped to Config.MaxPreStallSec and is zero before
// chunk 0 (no playback to pause yet). waitSec is how long a full buffer
// makes the driver wait before downloading; the buffer is already debited.
func (p *Playback) Decide(alg Algorithm, prof *sensitivity.Profile, traceTimeSec float64) (d Decision, waitSec float64, err error) {
	i, v := p.next, p.res.Rendering.Video
	n := v.NumChunks()
	if prof.Weights != nil && len(prof.Weights) != n {
		return d, 0, fmt.Errorf("player: epoch %d profile has %d weights for %d chunks", prof.Epoch, len(prof.Weights), n)
	}
	p.res.ChunkEpochs[i] = prof.Epoch
	p.st = State{
		Video:         v,
		ChunkIndex:    i,
		BufferSec:     p.buffer,
		LastRung:      p.lastRung,
		ThroughputBps: p.thr,
		DownloadSec:   p.dls,
		Weights:       prof.Weights,
		Sensitivity:   prof,
		TraceTimeSec:  traceTimeSec,
	}
	d = alg.Decide(&p.st)
	if d.Rung < 0 || d.Rung >= len(v.Ladder) {
		return d, 0, fmt.Errorf("player: %s chose rung %d for chunk %d (ladder size %d)", alg.Name(), d.Rung, i, len(v.Ladder))
	}
	if d.PreStallSec < 0 {
		return d, 0, fmt.Errorf("player: %s chose negative proactive stall %v", alg.Name(), d.PreStallSec)
	}
	if d.PreStallSec > p.cfg.MaxPreStallSec {
		d.PreStallSec = p.cfg.MaxPreStallSec
	}
	if i == 0 {
		d.PreStallSec = 0
	}

	// Proactive rebuffering (SENSEI action): playback pauses while
	// downloading continues, so the buffer rises by the stall length (§5.2:
	// "increment the buffer state by the chosen rebuffering time"; §6
	// realizes it by withholding the chunk from the source buffer). The
	// stall lands in front of the chunk the decision is for.
	if d.PreStallSec > 0 {
		p.buffer += d.PreStallSec
		p.res.Rendering.StallSec[i] += d.PreStallSec
		p.res.RebufferSec += d.PreStallSec
		p.res.ProactiveStallSec += d.PreStallSec
	}

	// A full buffer pauses downloads until the next chunk fits.
	if p.buffer+p.chunkDur > p.cfg.MaxBufferSec {
		waitSec = p.buffer + p.chunkDur - p.cfg.MaxBufferSec
		p.buffer -= waitSec
	}
	return d, waitSec, nil
}

// Deliver lands the chunk Decide was last called for: rung is what was
// actually delivered (a driver may have fallen back), bits its payload.
// downloadSec is the transfer that delivered it — the throughput sample is
// bits/downloadSec — and acquireSec ≥ downloadSec is how long playback
// kept draining meanwhile, retries and pauses included. It returns the
// stall that caused (0 for chunk 0, whose acquisition is the join delay).
func (p *Playback) Deliver(rung int, bits, downloadSec, acquireSec float64) (stallSec float64) {
	i := p.next
	switch {
	case i == 0:
		// Join delay: playback has not started yet.
		p.res.StartupSec = acquireSec
	case acquireSec > p.buffer:
		// Buffer ran dry mid-download: playback stalls until the chunk
		// lands. The stall precedes this chunk's playback.
		stallSec = acquireSec - p.buffer
		p.res.Rendering.StallSec[i] += stallSec
		p.res.RebufferSec += stallSec
		p.buffer = 0
	default:
		p.buffer -= acquireSec
	}
	p.buffer += p.chunkDur

	p.res.Rendering.Rungs[i] = rung
	p.res.BitsDownloaded += bits
	p.lastRung = rung
	p.thr = pushBounded(p.thr, bits/downloadSec)
	p.dls = pushBounded(p.dls, downloadSec)
	p.next++
	return stallSec
}

// Finish closes the session at nowSec on the driver's clock — playback
// ends once the final buffer has drained — and returns the result.
func (p *Playback) Finish(nowSec float64) (*Result, error) {
	p.res.WallClockSec = nowSec + p.buffer
	if err := p.res.Rendering.Validate(); err != nil {
		return nil, fmt.Errorf("player: produced invalid rendering: %w", err)
	}
	return &p.res, nil
}

// pushBounded appends x to a fixed-capacity history, dropping the oldest
// entry in place once it is full: the backing array is never re-allocated.
func pushBounded(xs []float64, x float64) []float64 {
	if len(xs) < cap(xs) {
		return append(xs, x)
	}
	copy(xs, xs[1:])
	xs[len(xs)-1] = x
	return xs
}
