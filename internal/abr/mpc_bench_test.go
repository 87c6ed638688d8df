package abr

import (
	"testing"

	"sensei/internal/player"
	"sensei/internal/trace"
	"sensei/internal/video"
)

// benchState builds a representative mid-session planning state.
func benchState(v *video.Video) *player.State {
	return &player.State{
		Video:         v,
		ChunkIndex:    12,
		BufferSec:     7.5,
		LastRung:      2,
		ThroughputBps: []float64{1.9e6, 2.4e6, 1.6e6, 2.1e6, 2.8e6},
		DownloadSec:   []float64{3.8, 3.1, 4.4, 3.5, 2.7},
		Weights:       v.TrueSensitivity(),
		TraceTimeSec:  55,
	}
}

// BenchmarkMPCDecide compares the tree-search planner against the
// brute-force oracle on one horizon-5 SENSEI-Fugu decision. The Harmonic
// cases plan over the online three-scenario predictor; the Oracle cases
// plan over an exact trace replay (§2.4), the configuration where the
// brute force also re-allocates a trace cursor per candidate plan.
func BenchmarkMPCDecide(b *testing.B) {
	v := video.TestSet()[0]
	tr := trace.TestSet()[4]
	s := benchState(v)

	run := func(b *testing.B, m player.Algorithm) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d := m.Decide(s)
			if d.Rung < 0 {
				b.Fatal("bad decision")
			}
		}
	}

	b.Run("Tree/Harmonic", func(b *testing.B) { run(b, NewSenseiFugu()) })
	b.Run("Brute/Harmonic", func(b *testing.B) { run(b, bruteOf(NewSenseiFugu())) })
	b.Run("Tree/Oracle", func(b *testing.B) {
		m := NewOracle(tr, true)
		m.Horizon = 5
		run(b, m)
	})
	b.Run("Brute/Oracle", func(b *testing.B) {
		m := NewOracle(tr, true)
		m.Horizon = 5
		run(b, bruteOracle(m))
	})
}
