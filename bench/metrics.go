package main

// metricDef is one row of BENCHMARK.json: the benchmark prints every metric
// by exactly this name and unit. Bound is the share of the parent's median
// by which an end-to-end metric may worsen before a change is a regression;
// per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Workload names, in the order a full run executes them. fleet_chaos runs
// last: it opens a connection per request, and the TIME_WAIT sockets it
// leaves behind must not sit under the other workloads' measurements.
const (
	wlSimPlan     = "sim_plan"
	wlOriginWire  = "origin_wire"
	wlFleetVclock = "fleet_vclock"
	wlFleetChaos  = "fleet_chaos"
)

var workloadNames = []string{wlSimPlan, wlOriginWire, wlFleetVclock, wlFleetChaos}

// workloadWhy is the one-line reason each workload exists (BENCHMARK.json
// carries the same text).
var workloadWhy = map[string]string{
	wlSimPlan:     "abr + player do all the work (no HTTP, origin or vclock): a planner change must show here and nowhere else",
	wlOriginWire:  "smallest real request on W keep-alive connections: per-request cost in origin + net/http dominates; abr, dash.Client and vclock.Virtual are bypassed",
	wlFleetVclock: "the product's end-to-end path (planner, dash.Client, loopback HTTP, origin, shaper, vclock, reconcile) with 0.3-1.5 MB segments, so byte-moving dominates",
	wlFleetChaos:  "the same layers used differently: a connection per request, retries and backoff, qlog emit, rating POSTs, ingest epoch bumps and weight re-fetches",
}

// endToEnd lists what a user of the system sees, measured with tracing off.
// The bounds are what this box can resolve, not what one would wish for: in
// the last of four 80-run A/A rounds the time-based metrics of one binary
// spread 3-23 % (IQR over ten runs / median) because the host slows the whole
// VM for minutes at a time, so anything timed carries the largest bound the driver allows; the
// count repeats to 0.6 % and keeps a tight one (README.md, "Calibration").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"segments_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_segment", "us", "lower", 0.25},
	{"allocs_per_segment", "count", "lower", 0.02},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"op_p95_us", "us", "lower", 0.25},
}

// perLayer lists the traced pass's metrics; the prefix before the dot is
// the repo module (http = net/http + kernel loopback between two of them).
var perLayer = []metricDef{
	{Name: "abr.decide_calls_per_segment", Unit: "count", Better: "lower"},
	{Name: "abr.decide_p50_us", Unit: "us", Better: "lower"},
	{Name: "abr.decide_p99_us", Unit: "us", Better: "lower"},
	{Name: "abr.busy_us_per_segment", Unit: "us", Better: "lower"},
	{Name: "player.self_us_per_segment", Unit: "us", Better: "lower"},
	{Name: "dash.stream_self_us_per_segment", Unit: "us", Better: "lower"},
	{Name: "dash.requests_per_segment", Unit: "count", Better: "lower"},
	{Name: "dash.retries_per_segment", Unit: "count", Better: "lower"},
	{Name: "dash.request_p50_us", Unit: "us", Better: "lower"},
	{Name: "dash.request_p99_us", Unit: "us", Better: "lower"},
	{Name: "http.self_us_per_request", Unit: "us", Better: "lower"},
	{Name: "http.conns_opened_per_segment", Unit: "count", Better: "lower"},
	{Name: "origin.serve_self_us_per_request", Unit: "us", Better: "lower"},
	{Name: "origin.segment_serve_p50_us", Unit: "us", Better: "lower"},
	{Name: "origin.segment_serve_p99_us", Unit: "us", Better: "lower"},
	{Name: "origin.control_serve_p50_us", Unit: "us", Better: "lower"},
	{Name: "origin.faulted_share", Unit: "ratio", Better: "lower"},
	{Name: "origin.rtt_p99_us", Unit: "us", Better: "lower"},
	{Name: "vclock.sleeps_per_segment", Unit: "count", Better: "lower"},
	{Name: "vclock.sleep_wall_p50_us", Unit: "us", Better: "lower"},
	{Name: "vclock.sleep_wall_p99_us", Unit: "us", Better: "lower"},
	{Name: "vclock.sleep_ns_d512", Unit: "ns", Better: "lower"},
	{Name: "qlog.events_per_segment", Unit: "count", Better: "lower"},
	{Name: "qlog.ring_drops", Unit: "count", Better: "lower"},
	{Name: "qlog.emit_ns", Unit: "ns", Better: "lower"},
	{Name: "chaos.faults_per_segment", Unit: "count", Better: "lower"},
	{Name: "chaos.decide_ns", Unit: "ns", Better: "lower"},
	{Name: "ingest.ratings_per_segment", Unit: "count", Better: "lower"},
	{Name: "ingest.refreshes", Unit: "count", Better: "lower"},
	{Name: "ingest.ingest_ns", Unit: "ns", Better: "lower"},
	{Name: "sensitivity.snapshot_ns", Unit: "ns", Better: "lower"},
	{Name: "sensitivity.refetches_per_session", Unit: "count", Better: "lower"},
	{Name: "fleet.boot_reconcile_ms_per_run", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "pct", Better: "lower"},
	{Name: "trace.layer_sum_share", Unit: "ratio", Better: "higher"},
}

// metricTable returns the definitions a run with the given trace flag prints.
func metricTable(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}
