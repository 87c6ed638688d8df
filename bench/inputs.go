package main

import (
	"runtime"

	"sensei/internal/stats"
	"sensei/internal/trace"
	"sensei/internal/video"
)

// sizing fixes how much work one rep of each workload does. Reps are short
// fixed-work units and a window is many of them: long windows of short reps
// are what repeat on a shared box (README.md, "Estimators").
type sizing struct {
	// W is the number of load-generating workers (= connections =
	// GOMAXPROCS). Generating load with more runnable sessions than cores
	// measures the scheduler: a 1000-session fleetsim -vclock with all
	// sessions concurrent ran 266-348 sess/s (27 % spread), with -workers 2
	// it ran 199-208 (4 %).
	W int
	// SimStride makes a sim_plan rep every SimStride-th cell of the
	// videos x traces x planners cross product: with 8, a stratified 60 of
	// the 480 sessions (every video, every trace, every planner), ~25 ms.
	// Only reps that short fit between a neighbour's bursts (README.md).
	// SimVideos/SimTraces truncate the cross product (0 = all) for the
	// smoke tests.
	SimStride, SimVideos, SimTraces int
	// WireSessions is origin_wire sessions per rep, WireSegments the
	// bottom-rung segment GETs per session.
	WireSessions, WireSegments int
	// FleetSessions / ChaosSessions are fleet.Run sizes per rep; Excerpt
	// truncates every fleet video to its first chunks (0 = full length).
	FleetSessions, ChaosSessions, Excerpt int
	// MinReps / ChaosMinReps are the fewest measured reps a window may hold.
	MinReps, ChaosMinReps int
	// ChaosSegmentCap ends a fleet_chaos window early: that workload opens
	// a connection per request, and 40 reps x 16 sessions left 63.6 k
	// TIME_WAIT sockets against tcp_max_tw_buckets=65536 while throughput
	// drifted 900 -> 700 seg/s inside one run.
	ChaosSegmentCap int64
}

// warmReps is how many reps run before the window opens: enough to fill
// caches and finish lazy set-up (profiles computed on first manifest, planner
// tables, pooled buffers). sim_plan's reps are an eighth of a sweep, so it
// warms up for two sweeps' worth.
func (s sizing) warmReps(workload string) int {
	if workload == wlSimPlan {
		return 2 * s.SimStride
	}
	return 1
}

// limits returns the fewest reps a workload's window may hold and the
// segment count that ends it early (0 = none).
func (s sizing) limits(workload string) (minReps int, segmentCap int64) {
	if workload == wlFleetChaos {
		return s.ChaosMinReps, s.ChaosSegmentCap
	}
	return s.MinReps, 0
}

// maxWorkers caps W: the benchmark must repeat on a 2-core sandbox and on a
// larger box alike, and above 4 the loopback origin is no longer the
// bottleneck being measured.
const maxWorkers = 4

func workers() int { return min(runtime.NumCPU(), maxWorkers) }

func fullSize() sizing {
	return sizing{
		W:         workers(),
		SimStride: 8,
		// 504 sessions split evenly over 1-4 workers; x 24 segments
		// = 12 096 GETs per rep, 600 samples beyond each rep's p95.
		WireSessions:    504,
		WireSegments:    24,
		FleetSessions:   24,
		ChaosSessions:   8,
		MinReps:         30,
		ChaosMinReps:    24,
		ChaosSegmentCap: 10_000,
	}
}

// traceSpecs mirrors trace.TestSet(): the paper's 10-trace evaluation mix
// (section 7.1). Only the realisation seed is the benchmark's own.
var traceSpecs = []trace.GenSpec{
	{Name: "hsdpa-0.55M", Kind: trace.KindHSDPA, MeanBps: 0.55e6},
	{Name: "hsdpa-0.8M", Kind: trace.KindHSDPA, MeanBps: 0.8e6},
	{Name: "fcc-1.0M", Kind: trace.KindFCC, MeanBps: 1.0e6},
	{Name: "hsdpa-1.3M", Kind: trace.KindHSDPA, MeanBps: 1.3e6},
	{Name: "fcc-1.7M", Kind: trace.KindFCC, MeanBps: 1.7e6},
	{Name: "hsdpa-2.2M", Kind: trace.KindHSDPA, MeanBps: 2.2e6},
	{Name: "fcc-2.8M", Kind: trace.KindFCC, MeanBps: 2.8e6},
	{Name: "fcc-3.5M", Kind: trace.KindFCC, MeanBps: 3.5e6},
	{Name: "hsdpa-4.5M", Kind: trace.KindHSDPA, MeanBps: 4.5e6},
	{Name: "fcc-5.8M", Kind: trace.KindFCC, MeanBps: 5.8e6},
}

// inputs is everything a workload is generated from. The same seed gives
// the same inputs; the program under test only ever sees the inputs.
type inputs struct {
	size sizing
	// traces are the ten evaluation traces realised from the seed.
	traces []*trace.Trace
	// chaosSeed keys the stream fleet_chaos draws each rep's fault schedule
	// and rater pool from; mixSeed keys origin_wire's session mix and
	// agentSeed Pensieve's weights.
	chaosSeed, mixSeed, agentSeed uint64
}

func newInputs(seed uint64, size sizing) *inputs {
	rng := stats.NewRNG(seed)
	in := &inputs{size: size}
	for _, s := range traceSpecs {
		s.Seconds = 900
		s.Seed = rng.Uint64()
		in.traces = append(in.traces, trace.Generate(s))
	}
	in.chaosSeed = rng.Uint64()
	in.mixSeed = rng.Uint64()
	in.agentSeed = rng.Uint64()
	return in
}

// fleetVideoNames is the fleet workloads' catalog: three full-length genres
// plus the short Mountain, so session lengths differ like a real mix.
var fleetVideoNames = []string{"Soccer1", "Tank", "Mountain", "Lava"}

func (in *inputs) fleetVideos() ([]*video.Video, error) {
	out := make([]*video.Video, 0, len(fleetVideoNames))
	for _, name := range fleetVideoNames {
		v, err := video.ByName(name)
		if err != nil {
			return nil, err
		}
		if n := in.size.Excerpt; n > 0 && n < v.NumChunks() {
			if v, err = v.Excerpt(0, n); err != nil {
				return nil, err
			}
		}
		out = append(out, v)
	}
	return out, nil
}

// fleetTraces is every other evaluation trace (0.8-5.8 Mbps), by name.
func (in *inputs) fleetTraces() map[string]*trace.Trace {
	out := map[string]*trace.Trace{}
	for i := 1; i < len(in.traces); i += 2 {
		out[in.traces[i].Name] = in.traces[i]
	}
	return out
}

func trueSensitivity(v *video.Video) ([]float64, error) { return v.TrueSensitivity(), nil }
