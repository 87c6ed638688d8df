package main

import (
	"fmt"
	"time"
)

// tracedWorkload is a workload whose rep records spans into a tracer.
type tracedWorkload interface {
	workload
	// layerCounts returns the last rep's self-reported layer counts.
	layerCounts() layerCounts
}

func (s *simPlan) layerCounts() layerCounts { return layerCounts{} }

func (ow *originWire) layerCounts() layerCounts { return layerCounts{} }

func (f *tracedFleet) layerCounts() layerCounts { return f.counts }

func newTracedWorkload(name string, tr *tracer) (tracedWorkload, error) {
	switch name {
	case wlSimPlan:
		return &simPlan{tr: tr}, nil
	case wlOriginWire:
		return &originWire{tr: tr}, nil
	case wlFleetVclock:
		return &tracedFleet{tr: tr}, nil
	case wlFleetChaos:
		return &tracedFleet{tr: tr, chaos: true}, nil
	}
	return nil, fmt.Errorf("bench: unknown workload %q (want one of %v)", name, workloadNames)
}

// tracedShare is the part of a traced run's window spent in traced reps;
// the rest runs the untraced workload, whose rate is the base of
// trace.overhead_pct.
const tracedShare = 2.0 / 3

// tracedWindow is the traced pass of one workload: the window itself plus
// per-rep values of every per-rep layer metric; the pooled duration
// histograms stay in the tracer.
type tracedWindow struct {
	*window
	perRep    map[string][]float64
	ringDrops int64
}

func perSegment(ns int64, segments int64) float64 {
	return float64(ns) / 1e3 / float64(segments)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// measureTraced runs traced reps until done, settling the tracer after each.
func measureTraced(wl tracedWorkload, tr *tracer, lanes int, done stop) (*tracedWindow, error) {
	tw := &tracedWindow{perRep: map[string][]float64{}}
	rec := func(name string, v float64) { tw.perRep[name] = append(tw.perRep[name], v) }
	conns := tr.connsOpened.Load()
	var unfinished int64
	w, err := measure(wl, done, func(r repStats, wall time.Duration) error {
		if err := tr.settle(); err != nil {
			return err
		}
		a, c, seg := &tr.agg, wl.layerCounts(), r.Segments
		unfinished, a.unfinished = unfinished+a.unfinished, 0
		k := &a.kinds
		rec("abr.decide_calls_per_segment", ratio(k[kDecide].count, seg))
		rec("abr.busy_us_per_segment", perSegment(k[kDecide].dur, seg))
		rec("player.self_us_per_segment", perSegment(k[kPlay].self, seg))
		rec("dash.stream_self_us_per_segment", perSegment(k[kStream].self, seg))
		rec("dash.requests_per_segment", ratio(k[kRoundTrip].count, seg))
		rec("dash.retries_per_segment", ratio(c.Retries, seg))
		rec("http.self_us_per_request", perSegment(k[kRoundTrip].self, max(k[kRoundTrip].count, 1)))
		rec("http.conns_opened_per_segment", ratio(tr.connsOpened.Load()-conns, seg))
		rec("origin.serve_self_us_per_request", perSegment(k[kServe].self, max(k[kServe].count, 1)))
		rec("origin.faulted_share", ratio(c.Faults, k[kServe].count))
		rec("vclock.sleeps_per_segment", ratio(k[kSleep].count, seg))
		rec("qlog.events_per_segment", ratio(c.Events, seg))
		rec("chaos.faults_per_segment", ratio(c.Faults, seg))
		rec("ingest.ratings_per_segment", ratio(c.Ratings, seg))
		rec("ingest.refreshes", float64(c.Refreshes))
		rec("sensitivity.refetches_per_session", ratio(c.Refetches, c.Sessions))
		rec("trace.layer_sum_share", float64(a.treeSelf)/(float64(lanes)*float64(wall.Nanoseconds())))
		tw.ringDrops += c.RingDrops
		conns = tr.connsOpened.Load()
		return nil
	})
	if err != nil {
		return nil, err
	}
	if unfinished != 0 {
		w.Problems = append(w.Problems, fmt.Sprintf("trace: %d spans never ended", unfinished))
	}
	tw.window = w
	return tw, nil
}

// layerMetrics assembles every per_layer metric: medians over the quiet
// traced reps for the per-rep values, pooled percentiles from the tracer's histograms,
// the probes, and the comparison against the untraced window.
func layerMetrics(tw *tracedWindow, tr *tracer, untraced *window, bootReconcileMs []float64, seed uint64) (map[string]float64, error) {
	m := map[string]float64{}
	quiet := quietReps(tw.Rates)
	for name, vals := range tw.perRep {
		m[name], _ = quietMedian(vals, quiet)
	}
	d := &tr.agg.durs
	requests := d[kRoundTrip][classControl]
	requests.merge(&d[kRoundTrip][classSegment])
	m["abr.decide_p50_us"] = d[kDecide][0].quantile(0.5) / 1e3
	m["abr.decide_p99_us"] = d[kDecide][0].tailUs(0.99)
	m["dash.request_p50_us"] = requests.quantile(0.5) / 1e3
	m["dash.request_p99_us"] = requests.tailUs(0.99)
	m["origin.segment_serve_p50_us"] = d[kServe][classSegment].quantile(0.5) / 1e3
	m["origin.segment_serve_p99_us"] = d[kServe][classSegment].tailUs(0.99)
	m["origin.control_serve_p50_us"] = d[kServe][classControl].quantile(0.5) / 1e3
	m["origin.rtt_p99_us"] = d[kRoundTrip][classSegment].tailUs(0.99)
	m["vclock.sleep_wall_p50_us"] = d[kSleep][0].quantile(0.5) / 1e3
	m["vclock.sleep_wall_p99_us"] = d[kSleep][0].tailUs(0.99)
	m["qlog.ring_drops"] = float64(tw.ringDrops)
	m["fleet.boot_reconcile_ms_per_run"] = median(bootReconcileMs)
	base := untraced.quietRate()
	m["trace.overhead_pct"] = (base - tw.quietRate()) / base * 100
	if err := runProbes(seed, m); err != nil {
		return nil, err
	}
	return m, nil
}
