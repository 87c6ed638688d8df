package abr

import (
	"runtime"
	"testing"
	"weak"

	"sensei/internal/player"
	"sensei/internal/trace"
	"sensei/internal/video"
)

// TestAlgorithmSessionAllocBudget pins what one simulated session costs
// with each planner the fleet or the benchmark runs. Every session gets a
// fresh instance, as fleet.NewAlgorithm and bench's sim_plan build them,
// and player.Play drives it with the video's own sensitivity. The count is
// a per-session constant: constructing the planner and the Playback, and
// nothing per chunk or per decision (the VMAF table lives on the video;
// planner and Pensieve scratch come from package-level pools). A count, so
// it repeats exactly on any machine.
func TestAlgorithmSessionAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	full, err := video.ByName("Soccer1")
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.TestSet()[4]
	// measured is the count when the budget was set: Play's seven (see
	// player.TestPlayAllocBudget) plus the planner's own objects — the
	// instance, SENSEI-Fugu's pre-stall choices, Pensieve's network. The
	// budget allows 10 % more.
	for _, c := range []struct {
		newAlg   func() player.Algorithm
		measured float64
	}{
		{func() player.Algorithm { return NewFugu() }, 8},
		{func() player.Algorithm { return NewSenseiFugu() }, 9},
		{func() player.Algorithm { return NewSenseiPensieve(7) }, 11},
		{func() player.Algorithm { return NewBOLA() }, 8},
		{func() player.Algorithm { return NewRateRule() }, 8},
	} {
		name := c.newAlg().Name()
		allocs := func(chunks int) float64 {
			v, err := full.Excerpt(0, chunks)
			if err != nil {
				t.Fatal(err)
			}
			w := v.TrueSensitivity()
			return testing.AllocsPerRun(20, func() {
				if _, err := player.Play(v, tr, c.newAlg(), w, player.Config{}); err != nil {
					t.Fatal(err)
				}
			})
		}
		short, long := allocs(10), allocs(50)
		t.Logf("%s: %.0f allocations per session at 10 chunks, %.0f at 50", name, short, long)
		if short != long {
			t.Errorf("%s allocates per chunk: %.0f allocations for 10 chunks, %.0f for 50", name, short, long)
		}
		if budget := 1.1 * c.measured; long > budget {
			t.Errorf("%s: %.0f allocations per session exceeds the budget of %.1f", name, long, budget)
		}
	}
}

// TestFinishedAgentIsCollectable: an agent that has planned keeps nothing
// pointing back at it, so once its session drops it the next GC frees it
// and its policy. A sync.Pool inside an agent would fail this: the runtime
// lists every pool and keeps the last cycle's as a victim cache, so the
// agent would outlive one more GC.
func TestFinishedAgentIsCollectable(t *testing.T) {
	s := benchState(video.TestSet()[0])
	pensieve := decidedAgent(s, func() *Pensieve { return NewSenseiPensieve(7) })
	mpc := decidedAgent(s, NewSenseiFugu)
	runtime.GC()
	if pensieve.Value() != nil {
		t.Error("a finished Pensieve survived a GC")
	}
	if mpc.Value() != nil {
		t.Error("a finished MPC survived a GC")
	}
}

// decidedAgent builds an agent, has it make one decision, and returns only
// a weak pointer to it.
//
//go:noinline
func decidedAgent[T any, P interface {
	*T
	player.Algorithm
}](s *player.State, newAgent func() P) weak.Pointer[T] {
	a := newAgent()
	a.Decide(s)
	return weak.Make((*T)(a))
}
