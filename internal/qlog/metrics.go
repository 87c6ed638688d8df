package qlog

import (
	"strconv"
	"sync/atomic"
)

// Counter is a cache-line-padded atomic counter: each one owns its line,
// so hot-path increments from many cores never false-share with a
// neighbouring counter in the Metrics block.
type Counter struct {
	v atomic.Int64
	_ [56]byte
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add folds n in.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load snapshots the counter.
func (c *Counter) Load() int64 { return c.v.Load() }

// histBounds are the shared histogram boundaries in nanoseconds, spanning
// sub-millisecond decision latencies through multi-second stalls. One
// fixed set keeps rendering precomputable (the le labels below are
// compile-time strings) and cross-family comparison trivial.
var histBounds = [...]int64{
	100_000,        // 100µs
	250_000,        // 250µs
	500_000,        // 500µs
	1_000_000,      // 1ms
	2_500_000,      // 2.5ms
	5_000_000,      // 5ms
	10_000_000,     // 10ms
	25_000_000,     // 25ms
	50_000_000,     // 50ms
	100_000_000,    // 100ms
	250_000_000,    // 250ms
	500_000_000,    // 500ms
	1_000_000_000,  // 1s
	2_500_000_000,  // 2.5s
	5_000_000_000,  // 5s
	10_000_000_000, // 10s
	30_000_000_000, // 30s
}

// histLabels are the Prometheus le= values (seconds) matching histBounds,
// precomputed so rendering a bucket line is pure byte appends.
var histLabels = [...]string{
	"0.0001", "0.00025", "0.0005", "0.001", "0.0025", "0.005",
	"0.01", "0.025", "0.05", "0.1", "0.25", "0.5",
	"1", "2.5", "5", "10", "30",
}

const numBuckets = len(histBounds) + 1 // + the +Inf bucket

// Histogram is a fixed-boundary latency histogram over padded atomics:
// Observe is a bounds scan plus three uncontended atomic adds, and the
// renderer reads the buckets without any lock. Values are nanoseconds;
// exposition converts to Prometheus' conventional seconds.
type Histogram struct {
	buckets [numBuckets]Counter
	count   Counter
	sum     Counter // nanoseconds
}

// Observe folds one nanosecond measurement in.
func (h *Histogram) Observe(ns int64) {
	i := 0
	for i < len(histBounds) && ns > histBounds[i] {
		i++
	}
	h.buckets[i].Inc()
	h.count.Inc()
	h.sum.Add(ns)
}

// Metrics is the process-wide aggregate registry behind GET /metrics:
// every family is a padded atomic Counter or a fixed-boundary Histogram,
// so observers on the hot path pay a handful of uncontended atomic adds
// and the serving path reads everything without locks. One instance can
// be shared across planes — the fleet harness hands the same registry to
// its clients and the origin, so client-side decision/stall families and
// origin-side serving families land in one exposition.
type Metrics struct {
	// Origin-side serving families.
	SegmentLatency Histogram // wall-clock segment serve duration
	SegmentsServed Counter
	BytesServed    Counter
	FaultsInjected Counter

	// Client-side playback families.
	DownloadLatency Histogram // wall-clock segment download duration
	DecisionLatency Histogram // wall-clock ABR decision duration
	StallDuration   Histogram // session-virtual stall duration
	Retries         Counter
	Degradations    Counter

	// Feedback plane.
	RatingsAccepted    Counter
	RatingsQuarantined Counter

	// Event-plane self-accounting.
	SessionsJoined Counter
	EventsEmitted  Counter
	RingDrops      Counter
}

// Emit appends ev to r, folding the outcome into m: stored events count
// toward EventsEmitted, dropped ones toward RingDrops. Either receiver may
// be nil (a nil ring discards silently — the plane is off). Never blocks,
// and allocates only what Ring.Emit does (a slot block the first time a
// lap-0 emit reaches it): safe on the segment hot path.
func Emit(r *Ring, m *Metrics, ev Event) {
	if r == nil {
		return
	}
	if r.Emit(ev) {
		if m != nil {
			m.EventsEmitted.Inc()
		}
	} else if m != nil {
		m.RingDrops.Inc()
	}
}

// appendCounter renders one counter family.
func appendCounter(b []byte, name string, c *Counter) []byte {
	b = append(b, "# TYPE "...)
	b = append(b, name...)
	b = append(b, " counter\n"...)
	b = append(b, name...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, c.Load(), 10)
	return append(b, '\n')
}

// appendHistogram renders one histogram family in Prometheus text format
// (cumulative buckets, seconds).
func appendHistogram(b []byte, name string, h *Histogram) []byte {
	b = append(b, "# TYPE "...)
	b = append(b, name...)
	b = append(b, " histogram\n"...)
	var cum int64
	for i, label := range histLabels {
		cum += h.buckets[i].Load()
		b = append(b, name...)
		b = append(b, `_bucket{le="`...)
		b = append(b, label...)
		b = append(b, `"} `...)
		b = strconv.AppendInt(b, cum, 10)
		b = append(b, '\n')
	}
	cum += h.buckets[numBuckets-1].Load()
	b = append(b, name...)
	b = append(b, `_bucket{le="+Inf"} `...)
	b = strconv.AppendInt(b, cum, 10)
	b = append(b, '\n')
	b = append(b, name...)
	b = append(b, "_sum "...)
	b = strconv.AppendFloat(b, float64(h.sum.Load())/1e9, 'g', -1, 64)
	b = append(b, '\n')
	b = append(b, name...)
	b = append(b, "_count "...)
	b = strconv.AppendInt(b, h.count.Load(), 10)
	return append(b, '\n')
}

// AppendPrometheus renders the whole registry as Prometheus text
// exposition appended to b. Pure byte appends over atomic loads — no
// locks, and zero heap allocation once b's capacity suffices (the
// /metrics handlers recycle their buffer across requests for exactly that
// reason).
func (m *Metrics) AppendPrometheus(b []byte) []byte {
	b = appendHistogram(b, "sensei_segment_latency_seconds", &m.SegmentLatency)
	b = appendCounter(b, "sensei_segments_served_total", &m.SegmentsServed)
	b = appendCounter(b, "sensei_bytes_served_total", &m.BytesServed)
	b = appendCounter(b, "sensei_faults_injected_total", &m.FaultsInjected)
	b = appendHistogram(b, "sensei_download_latency_seconds", &m.DownloadLatency)
	b = appendHistogram(b, "sensei_decision_latency_seconds", &m.DecisionLatency)
	b = appendHistogram(b, "sensei_stall_duration_seconds", &m.StallDuration)
	b = appendCounter(b, "sensei_retries_total", &m.Retries)
	b = appendCounter(b, "sensei_degradations_total", &m.Degradations)
	b = appendCounter(b, "sensei_ratings_accepted_total", &m.RatingsAccepted)
	b = appendCounter(b, "sensei_ratings_quarantined_total", &m.RatingsQuarantined)
	b = appendCounter(b, "sensei_sessions_joined_total", &m.SessionsJoined)
	b = appendCounter(b, "sensei_events_emitted_total", &m.EventsEmitted)
	b = appendCounter(b, "sensei_ring_drops_total", &m.RingDrops)
	return b
}
