package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sensei/internal/abr"
	"sensei/internal/player"
	"sensei/internal/trace"
	"sensei/internal/video"
)

// simPlan runs player.Play over a stratified sample of videos x traces x
// planners, split over W goroutines. abr and player do all the work: there
// is no HTTP, no origin and no clock, so a planner change must show here and
// nowhere else.
type simPlan struct {
	in     *inputs
	videos []*video.Video
	traces []*trace.Trace
	cells  []simCell
	ops    []hist // per worker: one Algorithm.Decide call
	tr     *tracer
}

// simCell is one (video, trace, planner) session of a rep.
type simCell struct {
	v      *video.Video
	tr     *trace.Trace
	newAlg func() player.Algorithm
}

func (s *simPlan) setup(in *inputs) error {
	s.in = in
	s.videos = video.TestSet()
	if n := in.size.SimVideos; n > 0 && n < len(s.videos) {
		s.videos = s.videos[:n]
	}
	s.traces = in.traces
	if n := in.size.SimTraces; n > 0 && n < len(s.traces) {
		s.traces = s.traces[:n]
	}
	agentSeed := in.agentSeed
	planners := []func() player.Algorithm{
		func() player.Algorithm { return abr.NewFugu() },
		func() player.Algorithm { return abr.NewSenseiFugu() },
		func() player.Algorithm { return abr.NewSenseiPensieve(agentSeed) },
	}
	i := 0
	for _, v := range s.videos {
		for _, tr := range s.traces {
			for _, p := range planners {
				if i%in.size.SimStride == 0 {
					s.cells = append(s.cells, simCell{v, tr, p})
				}
				i++
			}
		}
	}
	s.ops = make([]hist, in.size.W)
	return nil
}

// timedAlg records each Decide call's latency into its worker's histogram.
type timedAlg struct {
	player.Algorithm
	ops *hist
}

func (t *timedAlg) Decide(s *player.State) player.Decision {
	t0 := time.Now()
	d := t.Algorithm.Decide(s)
	t.ops.add(int64(time.Since(t0)))
	return d
}

// rungDigest folds one session's rung sequence into a 64-bit FNV-1a hash.
func rungDigest(cell int, rungs []int) uint64 {
	h := uint64(14695981039346656037) ^ uint64(cell)
	for _, r := range rungs {
		h = (h ^ uint64(r)) * 1099511628211
	}
	return h
}

func (s *simPlan) rep() (repStats, error) {
	n := len(s.cells)
	var next, segments, failed atomic.Int64
	var digest atomic.Uint64
	var firstErr atomic.Pointer[error]
	var wg sync.WaitGroup
	for w := 0; w < s.in.size.W; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				cell := s.cells[i]
				var alg player.Algorithm
				var span uint32
				if s.tr != nil {
					span = s.tr.begin(kPlay, 0, int32(i), 0)
					alg = &tracedAlg{Algorithm: cell.newAlg(), t: s.tr, sess: int32(i), parent: span}
				} else {
					alg = &timedAlg{Algorithm: cell.newAlg(), ops: &s.ops[w]}
				}
				res, err := player.Play(cell.v, cell.tr, alg, cell.v.TrueSensitivity(), player.Config{})
				if s.tr != nil {
					s.tr.end(span)
				}
				if err != nil {
					failed.Add(1)
					err = fmt.Errorf("sim_plan: %s on %s with %s: %w", cell.v.Name, cell.tr.Name, alg.Name(), err)
					firstErr.CompareAndSwap(nil, &err)
					continue
				}
				segments.Add(int64(len(res.Rendering.Rungs)))
				// Sessions finish in any order; a sum of per-session hashes
				// does not care.
				digest.Add(rungDigest(i, res.Rendering.Rungs))
			}
		}(w)
	}
	wg.Wait()
	r := repStats{Segments: segments.Load(), Attempted: int64(n), Failed: failed.Load(), Digest: digest.Load()}
	if e := firstErr.Load(); e != nil {
		r.Problems = append(r.Problems, (*e).Error())
	}
	return r, nil
}

func (s *simPlan) drainOps(dst *hist) {
	for i := range s.ops {
		dst.merge(&s.ops[i])
		s.ops[i].reset()
	}
}

func (s *simPlan) close() error { return nil }
