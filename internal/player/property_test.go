package player

import (
	"math"
	"testing"
	"testing/quick"

	"sensei/internal/sensitivity"
	"sensei/internal/stats"
	"sensei/internal/trace"
	"sensei/internal/video"
)

// randomAlg makes seeded random (but deterministic) decisions, fuzzing the
// simulator from the algorithm side.
type randomAlg struct{ rng *stats.RNG }

func (r *randomAlg) Name() string { return "random" }
func (r *randomAlg) Decide(s *State) Decision {
	d := Decision{Rung: r.rng.Intn(len(s.Video.Ladder))}
	if r.rng.Bool(0.1) {
		d.PreStallSec = r.rng.Range(0, 3)
	}
	return d
}

// Property: for any random policy and trace, the session satisfies its
// accounting invariants.
func TestPlaySessionInvariantsProperty(t *testing.T) {
	full, err := video.ByName("Girl")
	if err != nil {
		t.Fatal(err)
	}
	v, err := full.Excerpt(0, 12)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed | 1)
		tr := trace.Generate(trace.GenSpec{
			Name: "fuzz", Kind: trace.KindHSDPA, MeanBps: rng.Range(0.4e6, 6e6), Seconds: 300, Seed: seed,
		})
		res, err := Play(v, tr, &randomAlg{rng: rng.Fork()}, nil, Config{})
		if err != nil {
			return false
		}
		if res.Rendering.Validate() != nil {
			return false
		}
		// Stall ledger consistency.
		if res.ProactiveStallSec > res.RebufferSec+1e-9 {
			return false
		}
		if res.Rendering.TotalStallSec() < res.RebufferSec-1e-9 {
			return false
		}
		// Wall clock covers at least the video duration (playback is real
		// time) and at least total stall time.
		if res.WallClockSec < v.Duration().Seconds()-1e-6 {
			return false
		}
		// Bits accounting agrees with the rendering.
		diff := res.BitsDownloaded - renderedBits(res.Rendering)
		return diff < 1 && diff > -1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: scaling the trace up never increases total rebuffering for a
// fixed-rung policy.
func TestPlayMoreBandwidthLessStallProperty(t *testing.T) {
	full, err := video.ByName("Space")
	if err != nil {
		t.Fatal(err)
	}
	v, err := full.Excerpt(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed | 1)
		tr := trace.Generate(trace.GenSpec{
			Name: "p", Kind: trace.KindFCC, MeanBps: rng.Range(0.5e6, 2e6), Seconds: 300, Seed: seed,
		})
		alg := &fixedAlg{rung: 1 + rng.Intn(3)}
		base, err := Play(v, tr, alg, nil, Config{})
		if err != nil {
			return false
		}
		fast, err := Play(v, tr.Scaled(3), alg, nil, Config{})
		if err != nil {
			return false
		}
		return fast.RebufferSec <= base.RebufferSec+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: Playback keeps its accounting invariants under any delivery a
// driver can produce — including acquisitions longer than the download that
// completed them (retries, backoff), which only the HTTP client generates.
func TestPlaybackDeliveryInvariantsProperty(t *testing.T) {
	full, err := video.ByName("Girl")
	if err != nil {
		t.Fatal(err)
	}
	v, err := full.Excerpt(0, 40)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed | 1)
		cfg := Config{MaxBufferSec: rng.Range(8, 40), HistoryLen: 1 + rng.Intn(9)}
		pb, err := NewPlayback(v, cfg)
		if err != nil {
			return false
		}
		rec := &recordingAlg{}
		alg := &randomPreStaller{rec, rng}
		prof, _ := sensitivity.Freeze(v.Name, nil).Snapshot()
		var want []float64 // every throughput sample, oldest first
		for i := 0; i < v.NumChunks(); i++ {
			rec.rung = rng.Intn(len(v.Ladder))
			d, wait, err := pb.Decide(alg, prof, 0)
			if err != nil || wait < 0 {
				return false
			}
			if i == 0 && d.PreStallSec != 0 {
				return false
			}
			if b := pb.BufferSec(); b < 0 || b+video.ChunkDuration.Seconds() > cfg.MaxBufferSec+1e-9 {
				return false
			}
			// The history the algorithm saw is the tail of every sample
			// delivered so far, oldest first, never longer than HistoryLen.
			seen := rec.states[len(rec.states)-1].ThroughputBps
			if len(seen) > cfg.HistoryLen || len(seen) != min(len(want), cfg.HistoryLen) {
				return false
			}
			for k := range seen {
				if seen[k] != want[len(want)-len(seen)+k] {
					return false
				}
			}
			bits := v.ChunkSizeBits(i, d.Rung)
			downloadSec := rng.Range(0.05, 9)
			acquireSec := downloadSec
			if rng.Bool(0.3) {
				acquireSec += rng.Range(0, 12)
			}
			stall := pb.Deliver(d.Rung, bits, downloadSec, acquireSec)
			if stall < 0 || (i == 0 && stall != 0) {
				return false
			}
			want = append(want, bits/downloadSec)
		}
		res, err := pb.Finish(0)
		if err != nil || res.Rendering.StallSec[0] != 0 {
			return false
		}
		// The per-chunk stalls are the rebuffer ledger, term for term.
		var sum float64
		for _, s := range res.Rendering.StallSec {
			sum += s
		}
		return math.Abs(sum-res.RebufferSec) < 1e-9 && res.ProactiveStallSec <= res.RebufferSec+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// randomPreStaller wraps the recording algorithm with random proactive
// stalls, some above the cap.
type randomPreStaller struct {
	*recordingAlg
	rng *stats.RNG
}

func (p *randomPreStaller) Decide(s *State) Decision {
	d := p.recordingAlg.Decide(s)
	if p.rng.Bool(0.25) {
		d.PreStallSec = p.rng.Range(0, 3)
	}
	return d
}
