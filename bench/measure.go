package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// repStats is what one fixed-work rep reports.
type repStats struct {
	// Segments is the work unit every rate is normalised by: fleet
	// Report.SegmentsDownloaded, wire segment GETs read to EOF, sim chunks
	// rendered.
	Segments int64
	// Bytes is the segment payload moved (0 for sim_plan).
	Bytes int64
	// Attempted / Failed count operations: fleet sessions, wire segment
	// GETs, sim Play calls.
	Attempted, Failed int64
	// Digest fingerprints the rep's outputs (rung sequences, byte counts)
	// for workloads whose every rep must produce the same result; 0 for
	// fleet_chaos, whose autopilot races the sessions by design.
	Digest uint64
	// Problems are correctness failures found inside the rep.
	Problems []string
}

// workload is one closed-loop load shape. setup builds the inputs and boots
// whatever survives across reps; rep runs one fixed unit of work on W
// workers; drainOps moves the op latencies recorded since the last drain
// into dst; close tears everything down.
type workload interface {
	setup(in *inputs) error
	rep() (repStats, error)
	drainOps(dst *hist)
	close() error
}

func newWorkload(name string) (workload, error) {
	switch name {
	case wlSimPlan:
		return &simPlan{}, nil
	case wlOriginWire:
		return &originWire{}, nil
	case wlFleetVclock:
		return &fleetLoad{}, nil
	case wlFleetChaos:
		return &fleetLoad{chaos: true}, nil
	}
	return nil, fmt.Errorf("bench: unknown workload %q (want one of %v)", name, workloadNames)
}

// window is a measured sequence of reps and the estimators over it.
type window struct {
	Reps      int
	Sec       float64
	Segments  int64
	Attempted int64
	Failed    int64
	// Per rep: segments per wall second, process user+sys CPU µs per
	// segment, and the rep's own op p50 and p95 in µs (0 where the rep has
	// too few ops to support that percentile).
	Rates, CPUUs, P50Us, P95Us []float64
	// SmallOps keeps the ops of each rep that holds too few for a p95 of
	// its own (a fleet rep is 24 sessions), so that the quiet reps' ops
	// can be pooled; nil for the other reps.
	SmallOps   [][]bucketCount
	Mallocs    uint64
	Digest     uint64
	Problems   []string
	StealShare float64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxReps bounds the per-rep slices, which are allocated before the window
// opens so the harness itself allocates nothing while it measures.
const maxReps = 4096

// stop decides after each rep whether the window is complete.
type stop func(w *window, elapsed time.Duration) bool

// afterRep, when not nil, sees every measured rep right after it ran; the
// traced pass settles its spans there.
type afterRep func(r repStats, wall time.Duration) error

// measure runs reps of wl until done says stop. Every rep of a workload
// does the same work, so the reps' digests must agree.
func measure(wl workload, done stop, after afterRep) (*window, error) {
	w := &window{
		Rates:    make([]float64, 0, maxReps),
		CPUUs:    make([]float64, 0, maxReps),
		P50Us:    make([]float64, 0, maxReps),
		P95Us:    make([]float64, 0, maxReps),
		SmallOps: make([][]bucketCount, 0, maxReps),
	}
	var repOps hist
	var ms runtime.MemStats
	steal0 := readSteal()
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	start := time.Now()
	for w.Reps < maxReps {
		cpu0, t0 := cpuTime(), time.Now()
		r, err := wl.rep()
		wall, cpu := time.Since(t0), cpuTime()-cpu0
		if err != nil {
			return nil, err
		}
		if r.Segments <= 0 {
			return nil, fmt.Errorf("bench: rep %d completed no segments", w.Reps)
		}
		if after != nil {
			if err := after(r, wall); err != nil {
				return nil, err
			}
		}
		repOps.reset()
		wl.drainOps(&repOps)
		p50, p95 := repOps.quantile(0.5)/1e3, 0.0
		if supportedQuantile(0.95, repOps.n) == 0.95 {
			p95 = repOps.quantile(0.95) / 1e3
		}
		w.P50Us, w.P95Us = append(w.P50Us, p50), append(w.P95Us, p95)
		var small []bucketCount
		if p95 == 0 {
			small = repOps.compact()
		}
		w.SmallOps = append(w.SmallOps, small)
		w.Rates = append(w.Rates, float64(r.Segments)/wall.Seconds())
		w.CPUUs = append(w.CPUUs, float64(cpu.Microseconds())/float64(r.Segments))
		w.Segments += r.Segments
		w.Attempted += r.Attempted
		w.Failed += r.Failed
		w.Problems = append(w.Problems, r.Problems...)
		if w.Reps == 0 {
			w.Digest = r.Digest
		} else if r.Digest != w.Digest {
			w.Problems = append(w.Problems, fmt.Sprintf("rep %d produced digest %016x, rep 0 produced %016x", w.Reps, r.Digest, w.Digest))
		}
		w.Reps++
		if done(w, time.Since(start)) {
			break
		}
	}
	w.Sec = time.Since(start).Seconds()
	runtime.ReadMemStats(&ms)
	w.Mallocs = ms.Mallocs - mallocs0
	w.StealShare = readSteal().share(steal0)
	return w, nil
}

// quietCount is how many reps a window's timings are read from.
const quietCount = 8

// quietReps returns the indices of the quietCount reps with the highest
// rates. On a shared box interference only ever slows a rep, so the fastest
// reps are the least disturbed ones, and every timing is the median over
// them: enough reps for a median, as undisturbed as the window offers.
// How much that helps depends on the workload (README.md, "Estimators").
func quietReps(rates []float64) []int {
	idx := make([]int, len(rates))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return rates[idx[a]] > rates[idx[b]] })
	return idx[:min(len(idx), quietCount)]
}

// quietMedian is the median of xs over the given reps, skipping zeros
// (a rep that could not support the percentile); ok is false if none remain.
func quietMedian(xs []float64, reps []int) (v float64, ok bool) {
	vals := make([]float64, 0, len(reps))
	for _, i := range reps {
		if xs[i] > 0 {
			vals = append(vals, xs[i])
		}
	}
	return median(vals), len(vals) > 0
}

// quietRate is the window's segments per second.
func (w *window) quietRate() float64 {
	rate, _ := quietMedian(w.Rates, quietReps(w.Rates))
	return rate
}

// endToEndMetrics turns a window into the metrics it can know by itself;
// setup_s and peak_rss_mb are the parent process's to add. Rates, CPU and
// latencies are medians over the quiet reps, never total/total: one 22 s
// fleet window had reps [2000 1889 2085 2296 2105 2075 2070 664 603 870]
// seg/s, which total/total reads 30 % low.
func (w *window) endToEndMetrics() map[string]float64 {
	quiet := quietReps(w.Rates)
	rate := w.quietRate()
	cpu, _ := quietMedian(w.CPUUs, quiet)
	p50, _ := quietMedian(w.P50Us, quiet)
	// A workload with too few ops per rep for a p95 of each rep reads it
	// from the quiet reps' ops pooled, at the highest level they support:
	// p95 of 192 sessions on fleet_vclock, p84 of 64 on fleet_chaos.
	p95, ok := quietMedian(w.P95Us, quiet)
	if !ok {
		var pooled hist
		for _, i := range quiet {
			pooled.addCompact(w.SmallOps[i])
		}
		p95 = pooled.tailUs(0.95)
	}
	return map[string]float64{
		"segments_per_s":     rate,
		"cpu_us_per_segment": cpu,
		"allocs_per_segment": float64(w.Mallocs) / float64(w.Segments),
		"op_p50_us":          p50,
		"op_p95_us":          p95,
	}
}

// untilSeconds is the stop rule of an untraced window: at least the asked
// seconds and at least minReps reps; a segment cap (0 = none) ends it early.
func untilSeconds(seconds float64, minReps int, segmentCap int64) stop {
	return func(w *window, elapsed time.Duration) bool {
		if segmentCap > 0 && w.Segments >= segmentCap {
			return true
		}
		return elapsed.Seconds() >= seconds && w.Reps >= minReps
	}
}
