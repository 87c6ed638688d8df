package abr

import (
	"slices"
	"testing"
	"time"

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

// decideTimer records the latency of every Decide it forwards.
type decideTimer struct {
	player.Algorithm
	ns *[]int64
}

func (d decideTimer) Decide(s *player.State) player.Decision {
	t0 := time.Now()
	dec := d.Algorithm.Decide(s)
	*d.ns = append(*d.ns, int64(time.Since(t0)))
	return dec
}

// BenchmarkSimPlanDecide times one Decide, the op whose percentiles the
// benchmark's sim_plan workload reports, per planner: sim_plan's cells
// (every 8th of the test videos × test traces × {Fugu, SENSEI-Fugu,
// SENSEI-Pensieve}) are played in full, each Decide is timed, and p50_us and
// p95_us are reported over all of a planner's decisions. The "all"
// case pools the three planners' decisions as sim_plan does, so a shift in
// the pooled percentiles can be traced to the planner that caused it.
func BenchmarkSimPlanDecide(b *testing.B) {
	planners := []struct {
		name string
		alg  func() player.Algorithm
	}{
		{"Fugu", func() player.Algorithm { return NewFugu() }},
		{"SENSEI-Fugu", func() player.Algorithm { return NewSenseiFugu() }},
		{"SENSEI-Pensieve", func() player.Algorithm { return NewSenseiPensieve(1) }},
	}
	type cell struct {
		v       *video.Video
		tr      *trace.Trace
		planner int
	}
	var cells []cell
	i := 0
	for _, v := range video.TestSet() {
		for _, tr := range trace.TestSet() {
			for p := range planners {
				if i%8 == 0 {
					cells = append(cells, cell{v, tr, p})
				}
				i++
			}
		}
	}
	run := func(b *testing.B, only int) {
		var ns []int64
		for n := 0; n < b.N; n++ {
			for _, c := range cells {
				if only >= 0 && c.planner != only {
					continue
				}
				alg := decideTimer{planners[c.planner].alg(), &ns}
				if _, err := player.Play(c.v, c.tr, alg, c.v.TrueSensitivity(), player.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		}
		slices.Sort(ns)
		b.ReportMetric(float64(ns[len(ns)/2])/1e3, "p50_us")
		b.ReportMetric(float64(ns[len(ns)*95/100])/1e3, "p95_us")
	}
	for p, pl := range planners {
		b.Run(pl.name, func(b *testing.B) { run(b, p) })
	}
	b.Run("all", func(b *testing.B) { run(b, -1) })
}
