package fleet

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"time"

	"sensei/internal/chaos"
	"sensei/internal/dash"
	"sensei/internal/origin"
	"sensei/internal/qlog"
	"sensei/internal/stats"
	"sensei/internal/video"
)

// SessionOutcome is one fleet slot's captured playback result.
type SessionOutcome struct {
	// Index is the fleet slot (the mix assignment is a function of it).
	Index int `json:"index"`
	// SessionID is the origin-assigned ID ("" when the join itself failed).
	SessionID string `json:"session_id,omitempty"`
	// Video, Trace, ABR and TimeScale echo the slot's mix assignment.
	Video     string  `json:"video"`
	Trace     string  `json:"trace"`
	ABR       string  `json:"abr"`
	TimeScale float64 `json:"timescale"`
	// Rungs is the delivered per-chunk ladder sequence.
	Rungs []int `json:"rungs,omitempty"`
	// BytesDownloaded counts segment payload bytes the client received.
	BytesDownloaded int64 `json:"bytes_downloaded"`
	// Segments counts delivered segments.
	Segments int `json:"segments"`
	// RebufferSec is total stalled playback in virtual seconds.
	RebufferSec float64 `json:"rebuffer_sec"`
	// DownloadSec is time spent downloading, in virtual seconds.
	DownloadSec float64 `json:"download_sec"`
	// ThroughputBps is the session's mean observed throughput.
	ThroughputBps float64 `json:"throughput_bps"`
	// QoE is the content-blind session kernel; TrueQoE the latent
	// ground-truth MOS; WeightedQoE the sensitivity-weighted kernel (valid
	// when HasWeights).
	QoE         float64 `json:"qoe"`
	TrueQoE     float64 `json:"true_qoe"`
	WeightedQoE float64 `json:"weighted_qoe,omitempty"`
	HasWeights  bool    `json:"has_weights,omitempty"`
	// FirstEpoch and WeightEpoch are the sensitivity-profile epochs of the
	// first and last decision; they differ exactly when a refresh reached
	// the session mid-stream. WeightRefreshes counts the mid-stream
	// /weights re-fetches that adoption took.
	FirstEpoch      uint64 `json:"first_epoch,omitempty"`
	WeightEpoch     uint64 `json:"weight_epoch,omitempty"`
	WeightRefreshes int    `json:"weight_refreshes,omitempty"`
	// RatingsPosted / RatingsAccepted / RatingsQuarantined are the
	// session's closed-loop feedback ledger (zero unless the fleet ran
	// rater cohorts); posted always equals accepted + quarantined.
	RatingsPosted      int `json:"ratings_posted,omitempty"`
	RatingsAccepted    int `json:"ratings_accepted,omitempty"`
	RatingsQuarantined int `json:"ratings_quarantined,omitempty"`
	// Resilience is the session's fault ledger (nil unless the fleet ran
	// under chaos): every transient failure survived, every degradation
	// taken, counted never torn.
	Resilience *dash.Resilience `json:"resilience,omitempty"`
	// Events is the session's drained client-side trace summary (nil
	// unless the fleet ran with Config.Events). Reconciliation checks it
	// against the session's own ledgers as a third independent witness.
	Events *EventsOutcome `json:"events,omitempty"`
	// FinishedSec is when the session's stream completed, on the run
	// clock — reconciliation uses it to tell a session that legitimately
	// finished around a weight refresh from one the bump failed to reach.
	FinishedSec float64 `json:"finished_sec,omitempty"`
	// Err is the failure, if the session did not complete cleanly.
	Err string `json:"err,omitempty"`
}

// EpochKey labels the session's epoch cohort: a single epoch ("1") for
// sessions that never saw a refresh, a span ("1→2") for sessions that
// adopted one mid-stream.
func (o *SessionOutcome) EpochKey() string {
	if o.FirstEpoch == o.WeightEpoch {
		return strconv.FormatUint(o.WeightEpoch, 10)
	}
	return strconv.FormatUint(o.FirstEpoch, 10) + "→" + strconv.FormatUint(o.WeightEpoch, 10)
}

// EventsOutcome summarizes one session's drained client-side event ring.
type EventsOutcome struct {
	// ByKind counts drained events per kind token.
	ByKind map[string]int64 `json:"by_kind,omitempty"`
	// Bytes sums chunk_done + chunk_progress payload bytes — the event
	// plane's reproduction of the session's byte ledger.
	Bytes int64 `json:"bytes,omitempty"`
	// Drops is the ring's cumulative drop count. Nonzero means the trace
	// has holes: it is no longer a witness, and reconciliation fails.
	Drops int64 `json:"drops,omitempty"`
	// Trace is the full drained event list (EventsSpec.KeepTraces only).
	Trace []qlog.Event `json:"trace,omitempty"`
}

// count returns the session's tally for one event kind.
func (e *EventsOutcome) count(k qlog.Kind) int64 { return e.ByKind[k.String()] }

// drainOutcome consumes a session's trace ring into its outcome summary.
// Only a kept trace is materialized; otherwise each event is folded
// straight into the tally.
func drainOutcome(r *qlog.Ring, keepTrace bool) *EventsOutcome {
	var events []qlog.Event
	var t qlog.Tally
	if keepTrace {
		events = r.Drain(nil)
		t = qlog.TallyOf(events, r.Drops())
	} else {
		t = r.DrainTally()
	}
	eo := &EventsOutcome{ByKind: map[string]int64{}, Bytes: t.Bytes, Drops: t.Drops, Trace: events}
	for k := 1; k < qlog.NumKinds; k++ {
		if n := t.Counts[k]; n != 0 {
			eo.ByKind[qlog.Kind(k).String()] = n
		}
	}
	return eo
}

// Percentiles summarizes a metric's distribution tail.
type Percentiles struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

func percentilesOf(xs []float64) Percentiles {
	if len(xs) == 0 {
		// stats.Percentile panics on empty input; a fleet where every
		// session failed still needs a report.
		return Percentiles{}
	}
	return Percentiles{
		P50: stats.Percentile(xs, 0.50),
		P95: stats.Percentile(xs, 0.95),
		P99: stats.Percentile(xs, 0.99),
	}
}

// Cohort aggregates the sessions sharing one mix dimension value (one ABR,
// or one trace).
type Cohort struct {
	Sessions           int     `json:"sessions"`
	Failed             int     `json:"failed"`
	Bytes              int64   `json:"bytes"`
	MeanQoE            float64 `json:"mean_qoe"`
	MeanTrueQoE        float64 `json:"mean_true_qoe"`
	MeanRebufferSec    float64 `json:"mean_rebuffer_sec"`
	MeanThroughputMbps float64 `json:"mean_throughput_mbps"`
}

// Reconciliation is the exact cross-check of the fleet's ledgers (DESIGN.md,
// "Reconciliation invariants"): Ok when every row holds, otherwise one
// problem per broken row, beginning with the row's name.
type Reconciliation struct {
	Ok       bool     `json:"ok"`
	Problems []string `json:"problems,omitempty"`
}

// Report is a fleet run's aggregate result.
type Report struct {
	Sessions       int     `json:"sessions"`
	Failed         int     `json:"failed"`
	ElapsedSec     float64 `json:"elapsed_sec"`
	SessionsPerSec float64 `json:"sessions_per_sec"`
	// VirtualSec is the run's span in simulated time. Speedup is
	// VirtualSec/ElapsedSec — how much faster than real time the run
	// covered its workload.
	VirtualSec float64 `json:"virtual_sec"`
	Speedup    float64 `json:"speedup,omitempty"`
	// BytesDownloaded / SegmentsDownloaded sum the client-side ledgers.
	BytesDownloaded    int64 `json:"bytes_downloaded"`
	SegmentsDownloaded int64 `json:"segments_downloaded"`
	// RebufferSec and ThroughputMbps summarize completed sessions.
	RebufferSec    Percentiles `json:"rebuffer_sec"`
	ThroughputMbps Percentiles `json:"throughput_mbps"`
	MeanQoE        float64     `json:"mean_qoe"`
	MeanTrueQoE    float64     `json:"mean_true_qoe"`
	// ByABR and ByTrace break the fleet down per mix dimension. ByEpoch
	// groups sessions by the sensitivity epochs they ran under ("1" for a
	// stable profile, "1→2" for sessions a refresh reached mid-stream), so
	// the QoE effect of a weight refresh is directly readable.
	ByABR   map[string]Cohort `json:"by_abr"`
	ByTrace map[string]Cohort `json:"by_trace"`
	ByEpoch map[string]Cohort `json:"by_epoch,omitempty"`
	// Refresh reports the scheduled mid-run weight refresh, when one was
	// configured.
	Refresh *RefreshOutcome `json:"refresh,omitempty"`
	// Ingest is the fleet-side closed-loop ledger (nil unless rater
	// cohorts ran).
	Ingest *IngestLedger `json:"ingest,omitempty"`
	// Chaos is the two-sided fault ledger (nil unless the fleet ran under
	// chaos).
	Chaos *ChaosLedger `json:"chaos,omitempty"`
	// Events is the event-plane ledger (nil unless the fleet ran with
	// Config.Events).
	Events *EventsLedger `json:"events,omitempty"`
	// Origin is the server's /stats snapshot after the fleet drained.
	Origin origin.Stats `json:"origin"`
	// ShardStats holds the per-shard ledgers behind Origin when the fleet
	// ran against a multi-origin router (Config.OriginShards > 1); empty for
	// a single origin.
	ShardStats []origin.Stats `json:"origin_shards,omitempty"`
	// Reconciliation cross-checks the two ledgers.
	Reconciliation Reconciliation `json:"reconciliation"`
	// Outcomes holds the per-session rows when Config.KeepOutcomes is set.
	Outcomes []SessionOutcome `json:"outcomes,omitempty"`
}

// IngestLedger sums the fleet's client-side rating counters, which
// reconciliation holds against the origin's ingest stats.
type IngestLedger struct {
	RatingsPosted      int64 `json:"ratings_posted"`
	RatingsAccepted    int64 `json:"ratings_accepted"`
	RatingsQuarantined int64 `json:"ratings_quarantined"`
	// SessionsRated counts sessions that posted at least one rating.
	SessionsRated int `json:"sessions_rated"`
}

// ChaosLedger is the fleet's two-sided fault ledger: what the origin
// injected and what the clients observed, per endpoint kind.
type ChaosLedger struct {
	// Seed is the policy seed the whole fault schedule replays from.
	Seed uint64 `json:"seed"`
	// Injected counts origin-side faults per endpoint kind; InjectedByMode
	// breaks the same total down per failure mode.
	Injected       map[string]int64 `json:"injected"`
	InjectedByMode map[string]int64 `json:"injected_by_mode"`
	// Survived counts client-observed transient failures per endpoint kind,
	// summed across every session's Resilience ledger (failed included).
	Survived map[string]int64 `json:"survived"`
	// Retries, Truncations and the degradation counters sum the client
	// side's recovery activity.
	Retries          int64 `json:"retries"`
	Truncations      int64 `json:"truncations"`
	SegmentFallbacks int64 `json:"segment_fallbacks"`
	StaleWeightsKept int64 `json:"stale_weights_kept"`
	RatingsDropped   int64 `json:"ratings_dropped"`
	Degradations     int64 `json:"degradations"`
	// Events is the origin's fault journal, replayable from Seed alone.
	Events []chaos.Event `json:"events,omitempty"`
}

// EventsLedger sums the fleet's event-plane activity: completed sessions'
// per-kind trace tallies plus the shared registry's self-accounting
// (origin-side mirror events included in Emitted).
type EventsLedger struct {
	// ByKind and Bytes sum completed sessions' traces — mirroring the
	// client byte/segment ledgers, which also exclude failed sessions.
	ByKind map[string]int64 `json:"by_kind"`
	Bytes  int64            `json:"bytes"`
	// Emitted and Drops are the shared registry's totals across every ring
	// in the run (client traces, origin session mirrors, process ring).
	Emitted int64 `json:"emitted"`
	Drops   int64 `json:"drops"`
	// SessionsTraced counts outcome rows carrying a trace summary.
	SessionsTraced int `json:"sessions_traced"`
	// FaultsMirrored counts the origin_fault_injected events the harness
	// drained from the backend's process ring(s) over a chaos run;
	// reconciliation holds it against the injector's journal.
	FaultsMirrored int64 `json:"faults_mirrored,omitempty"`
}

// buildReport aggregates outcomes and reconciles them against the origin's
// ledger.
func buildReport(outcomes []SessionOutcome, st origin.Stats, shardSt []origin.Stats, refresh *RefreshOutcome, metrics *qlog.Metrics, faultEvents int64, elapsed, virtual time.Duration, keepOutcomes bool) *Report {
	r := &Report{
		Sessions:   len(outcomes),
		ElapsedSec: elapsed.Seconds(),
		VirtualSec: virtual.Seconds(),
		ByABR:      map[string]Cohort{},
		ByTrace:    map[string]Cohort{},
		ByEpoch:    map[string]Cohort{},
		Refresh:    refresh,
		Origin:     st,
		ShardStats: shardSt,
	}
	if r.ElapsedSec > 0 {
		r.SessionsPerSec = float64(r.Sessions) / r.ElapsedSec
		r.Speedup = r.VirtualSec / r.ElapsedSec
	}
	var rebuf, thrMbps, qoes, trueQoEs []float64
	type cohortAcc struct {
		c            Cohort
		qoe, tq      float64
		rebuf, thr   float64
		completedCnt int
	}
	accumulate := func(m map[string]*cohortAcc, key string, o *SessionOutcome) {
		a := m[key]
		if a == nil {
			a = &cohortAcc{}
			m[key] = a
		}
		a.c.Sessions++
		if o.Err != "" {
			a.c.Failed++
			return
		}
		a.c.Bytes += o.BytesDownloaded
		a.qoe += o.QoE
		a.tq += o.TrueQoE
		a.rebuf += o.RebufferSec
		a.thr += o.ThroughputBps
		a.completedCnt++
	}
	byABR := map[string]*cohortAcc{}
	byTrace := map[string]*cohortAcc{}
	byEpoch := map[string]*cohortAcc{}
	// A closed-loop run (the origin reports ingest counters) gets the
	// client-side rating ledger, and a chaos run (it reports injector
	// counters) the summed fault ledger, failed sessions included: whatever
	// a session posted or observed before dying still reached the origin.
	if st.Ingest != nil {
		r.Ingest = &IngestLedger{}
	}
	if st.Chaos != nil {
		r.Chaos = &ChaosLedger{Injected: map[string]int64{}, InjectedByMode: map[string]int64{}, Survived: map[string]int64{}}
		maps.Copy(r.Chaos.Injected, st.Chaos.ByKind)
		maps.Copy(r.Chaos.InjectedByMode, st.Chaos.ByMode)
	}
	if metrics != nil {
		r.Events = &EventsLedger{
			ByKind:         map[string]int64{},
			Emitted:        metrics.EventsEmitted.Load(),
			Drops:          metrics.RingDrops.Load(),
			FaultsMirrored: faultEvents,
		}
	}
	landed := refresh != nil && refresh.Err == "" && refresh.Applied
	for i := range outcomes {
		o := &outcomes[i]
		accumulate(byABR, o.ABR, o)
		accumulate(byTrace, o.Trace, o)
		accumulate(byEpoch, o.EpochKey(), o)
		if led := r.Ingest; led != nil {
			led.RatingsPosted += int64(o.RatingsPosted)
			led.RatingsAccepted += int64(o.RatingsAccepted)
			led.RatingsQuarantined += int64(o.RatingsQuarantined)
			if o.RatingsPosted > 0 {
				led.SessionsRated++
			}
		}
		if cl, res := r.Chaos, o.Resilience; cl != nil && res != nil {
			for k, n := range res.FaultsByKind {
				cl.Survived[k] += n
			}
			cl.Retries += res.Retries
			cl.Truncations += res.Truncations
			cl.SegmentFallbacks += res.SegmentFallbacks
			cl.StaleWeightsKept += res.StaleWeightsKept
			cl.RatingsDropped += res.RatingsDropped
			cl.Degradations += res.Degradations()
		}
		if r.Events != nil && o.Events != nil {
			r.Events.SessionsTraced++
		}
		if o.Err != "" {
			// A failed session's partial trace stays on its row but, like
			// its byte ledger, out of the sums.
			r.Failed++
			continue
		}
		r.BytesDownloaded += o.BytesDownloaded
		r.SegmentsDownloaded += int64(o.Segments)
		rebuf = append(rebuf, o.RebufferSec)
		thrMbps = append(thrMbps, o.ThroughputBps/1e6)
		qoes = append(qoes, o.QoE)
		trueQoEs = append(trueQoEs, o.TrueQoE)
		if el := r.Events; el != nil && o.Events != nil {
			el.Bytes += o.Events.Bytes
			for k, n := range o.Events.ByKind {
				el.ByKind[k] += n
			}
		}
		if landed {
			if reached, early := refresh.reached(o); reached {
				refresh.SessionsConverged++
			} else if early {
				refresh.SessionsFinishedEarly++
			}
		}
	}
	finish := func(m map[string]*cohortAcc, dst map[string]Cohort) {
		for key, a := range m {
			if a.completedCnt > 0 {
				n := float64(a.completedCnt)
				a.c.MeanQoE = a.qoe / n
				a.c.MeanTrueQoE = a.tq / n
				a.c.MeanRebufferSec = a.rebuf / n
				a.c.MeanThroughputMbps = a.thr / n / 1e6
			}
			dst[key] = a.c
		}
	}
	finish(byABR, r.ByABR)
	finish(byTrace, r.ByTrace)
	finish(byEpoch, r.ByEpoch)
	r.RebufferSec = percentilesOf(rebuf)
	r.ThroughputMbps = percentilesOf(thrMbps)
	r.MeanQoE = stats.Mean(qoes)
	r.MeanTrueQoE = stats.Mean(trueQoEs)
	r.Reconciliation = reconcile(outcomes, r)
	if keepOutcomes {
		r.Outcomes = outcomes
	}
	return r
}

// reached reports whether a landed refresh reached a completed session (it
// ended on its video's refreshed epoch or past it) and, if not, whether it
// finished early: within the slack one final segment may take after its
// decision (a buffer-full wait of one chunk plus its download), since the
// epoch beacon bounds adoption at one segment download.
func (rf *RefreshOutcome) reached(o *SessionOutcome) (reached, early bool) {
	if o.WeightEpoch >= rf.Epochs[o.Video] {
		return true, false
	}
	slack := o.DownloadSec*o.TimeScale + video.ChunkDuration.Seconds()*o.TimeScale
	return false, o.FinishedSec <= rf.AppliedSec+slack
}

// invariant is one row of the reconciliation table (DESIGN.md,
// "Reconciliation invariants"): its name, what the run measured, and what
// that must equal.
type invariant struct {
	name      string
	got, want int64
}

// audit collects a reconciliation's problems. fail is the only place it
// formats a string, so a passing run formats none.
type audit []string

func (a *audit) fail(name, format string, args ...any) {
	*a = append(*a, name+": "+fmt.Sprintf(format, args...))
}

func (a *audit) hold(rows ...invariant) {
	for _, in := range rows {
		if in.got != in.want {
			a.fail(in.name, "got %d, want %d", in.got, in.want)
		}
	}
}

// shardCounters are the counters a router's merged /stats must report as
// exactly the sum of its shards'.
var shardCounters = []struct {
	name string
	of   func(*origin.Stats) int64
}{
	{"shards.bytes_served", func(s *origin.Stats) int64 { return s.BytesServed }},
	{"shards.segments_served", func(s *origin.Stats) int64 { return s.SegmentsServed }},
	{"shards.sessions_created", func(s *origin.Stats) int64 { return s.SessionsCreated }},
	{"shards.sessions_closed", func(s *origin.Stats) int64 { return s.SessionsClosed }},
	{"shards.sessions_expired", func(s *origin.Stats) int64 { return s.SessionsExpired }},
	{"shards.active_sessions", func(s *origin.Stats) int64 { return int64(s.ActiveSessions) }},
}

// traceWitness pairs each event kind a completed session's trace counts
// with the session ledger that count must equal (row "trace.<kind>").
// Resilience rows apply only to sessions that carry a fault ledger.
var traceWitness = []struct {
	kind       qlog.Kind
	resilience bool
	want       func(o *SessionOutcome) int64
}{
	{qlog.KindSessionJoin, false, func(*SessionOutcome) int64 { return 1 }},
	{qlog.KindSessionLeave, false, func(*SessionOutcome) int64 { return 1 }},
	{qlog.KindDecision, false, func(o *SessionOutcome) int64 { return int64(o.Segments) }},
	{qlog.KindChunkDone, false, func(o *SessionOutcome) int64 { return int64(o.Segments) }},
	{qlog.KindChunkStart, false, func(o *SessionOutcome) int64 {
		if o.Resilience == nil {
			return int64(o.Segments)
		}
		return int64(o.Segments) + o.Resilience.SegmentFallbacks // a fallback restarts its chunk
	}},
	{qlog.KindStallBegin, false, func(o *SessionOutcome) int64 { return o.Events.count(qlog.KindStallEnd) }},
	{qlog.KindEpochAdopted, false, func(o *SessionOutcome) int64 { return int64(o.WeightRefreshes) }},
	{qlog.KindRatingPosted, false, func(o *SessionOutcome) int64 { return int64(o.RatingsPosted) }},
	{qlog.KindRatingAccepted, false, func(o *SessionOutcome) int64 { return int64(o.RatingsAccepted) }},
	{qlog.KindRatingQuarantined, false, func(o *SessionOutcome) int64 { return int64(o.RatingsQuarantined) }},
	{qlog.KindRetry, true, func(o *SessionOutcome) int64 { return o.Resilience.Retries }},
	{qlog.KindFaultSurvived, true, func(o *SessionOutcome) int64 { return o.Resilience.Faults() }},
	{qlog.KindDegradation, true, func(o *SessionOutcome) int64 { return o.Resilience.Degradations() }},
}

// reconcile checks a built report against every row of the reconciliation
// table: client ledgers, origin /stats, the shard ledgers behind it and the
// event traces must agree exactly. It reads its inputs and never writes.
func reconcile(outcomes []SessionOutcome, r *Report) Reconciliation {
	var a audit
	st := &r.Origin
	var hits, epochSessions int64
	for _, n := range st.VideoHits {
		hits += n
	}
	for _, c := range r.ByEpoch {
		epochSessions += int64(c.Sessions)
	}
	sessions := int64(r.Sessions)
	a.hold(
		invariant{"lifecycle.bytes", st.BytesServed, r.BytesDownloaded},
		invariant{"lifecycle.segments", st.SegmentsServed, r.SegmentsDownloaded},
		invariant{"lifecycle.created", st.SessionsCreated, sessions},
		invariant{"lifecycle.closed", st.SessionsClosed, sessions},
		invariant{"lifecycle.video_hits", hits, r.SegmentsDownloaded},
		invariant{"epoch.cohorts", epochSessions, sessions},
	)
	// Sticky sessions drain each shard like a single origin; the merged
	// count is their sum (shards.active_sessions).
	origins := r.ShardStats
	if len(origins) == 0 {
		origins = []origin.Stats{r.Origin}
	}
	for i := range origins {
		if n := origins[i].ActiveSessions; n != 0 {
			a.fail("lifecycle.active", "origin %d still holds %d sessions after the fleet drained", i, n)
		}
	}
	if len(r.ShardStats) > 0 {
		shardHits := map[string]int64{}
		for i := range r.ShardStats {
			for name, n := range r.ShardStats[i].VideoHits {
				shardHits[name] += n
			}
		}
		for _, name := range slices.Sorted(maps.Keys(shardHits)) {
			if n := shardHits[name]; n != st.VideoHits[name] {
				a.fail("shards.video_hits", "%q: shards sum to %d, merged /stats reports %d", name, n, st.VideoHits[name])
			}
		}
		for _, c := range shardCounters {
			var sum int64
			for i := range r.ShardStats {
				sum += c.of(&r.ShardStats[i])
			}
			a.hold(invariant{c.name, sum, c.of(st)})
		}
	}
	if ing, led := st.Ingest, r.Ingest; ing != nil {
		attributable := ing.RefreshesApplied // every epoch bump is the autopilot's or the operator's
		if r.Refresh != nil && r.Refresh.Applied {
			attributable += int64(len(r.Refresh.Epochs))
		}
		a.hold(
			invariant{"ingest.posted", led.RatingsPosted, led.RatingsAccepted + led.RatingsQuarantined},
			invariant{"ingest.accepted", led.RatingsAccepted, ing.RatingsAccepted},
			invariant{"ingest.quarantined", led.RatingsQuarantined, ing.RatingsQuarantined},
			invariant{"ingest.rejected", ing.RatingsRejected, 0},
			invariant{"ingest.refresh_errors", ing.RefreshErrors, 0},
			invariant{"ingest.settled", ing.RefreshesApplied, ing.RefreshesTriggered},
			invariant{"ingest.attributable", st.ProfilesRefreshed, attributable},
		)
	}
	if ch := st.Chaos; ch != nil {
		// Chaos truncates segments only, and a client counts a truncation
		// only on a segment, so the two sides meet exactly.
		a.hold(
			invariant{"chaos.journal_dropped", ch.JournalDropped, 0},
			invariant{"chaos.truncations", r.Chaos.Truncations, r.Chaos.InjectedByMode[string(chaos.ModeTruncate)]},
		)
		kinds := make([]string, 0, len(r.Chaos.Injected)+len(r.Chaos.Survived))
		kinds = slices.AppendSeq(slices.AppendSeq(kinds, maps.Keys(r.Chaos.Injected)), maps.Keys(r.Chaos.Survived))
		slices.Sort(kinds)
		for _, k := range slices.Compact(kinds) {
			if inj, srv := r.Chaos.Injected[k], r.Chaos.Survived[k]; inj != srv {
				a.fail("chaos.survived", "origin injected %d %s faults, clients observed %d", inj, k, srv)
			}
		}
	}
	if ev := r.Events; ev != nil {
		a.hold(invariant{"events.drops", ev.Drops, 0}, invariant{"events.bytes", ev.Bytes, r.BytesDownloaded})
		if ch := st.Chaos; ch != nil {
			a.hold(invariant{"events.faults_mirrored", ev.FaultsMirrored, ch.Total - ch.JournalDropped})
		}
	}
	rf := r.Refresh
	landed := rf != nil && rf.Err == "" && rf.Applied
	switch {
	case rf == nil:
	case !landed:
		a.fail("refresh.applied", "scheduled refresh never applied (err %q)", rf.Err)
	default:
		// The autopilot may bump past the operator refresh, so /stats must
		// be at least the published epoch; lower means the publish was lost.
		for name, epoch := range rf.Epochs {
			if st.WeightEpochs[name] < epoch {
				a.fail("refresh.stats_epoch", "refresh published epoch %d for %q, /stats reports %d", epoch, name, st.WeightEpochs[name])
			}
		}
		if st.ProfilesRefreshed < int64(len(rf.Epochs)) {
			a.fail("refresh.stats_bumps", "/stats counts %d refreshes for %d published", st.ProfilesRefreshed, len(rf.Epochs))
		}
	}
	for i := range outcomes {
		o, ev := &outcomes[i], outcomes[i].Events
		switch {
		case r.Events == nil:
		case ev == nil && o.Err == "":
			a.fail("trace.present", "session %d completed without an event trace", o.Index)
		case ev != nil && ev.Drops != 0: // a trace with holes proves nothing
			a.fail("trace.drops", "session %d event ring dropped %d events", o.Index, ev.Drops)
		}
		if o.Err != "" { // its trace is legitimately partial
			a.fail("lifecycle.failed", "session %d (%s/%s/%s) failed: %s", o.Index, o.Video, o.Trace, o.ABR, o.Err)
			continue
		}
		// WeightEpochs omits never-published videos: its zero value is the
		// origin's epoch for them.
		if published := st.WeightEpochs[o.Video]; o.WeightEpoch > published {
			a.fail("epoch.published", "session %d ended on epoch %d of %q, origin only published %d", o.Index, o.WeightEpoch, o.Video, published)
		}
		if landed {
			if reached, early := rf.reached(o); !reached && !early {
				a.fail("refresh.reach", "session %d (%s) streamed past the refresh (finished %.2fs, bump %.2fs) yet ended on epoch %d, not %d",
					o.Index, o.Video, o.FinishedSec, rf.AppliedSec, o.WeightEpoch, rf.Epochs[o.Video])
			}
		}
		if r.Events == nil || ev == nil {
			continue
		}
		// The trace witness: a third account, held against the session's
		// own ledgers, which the rows above tie to origin /stats.
		if ev.Bytes != o.BytesDownloaded {
			a.fail("trace.bytes", "session %d traced %d payload bytes, client ledger %d", o.Index, ev.Bytes, o.BytesDownloaded)
		}
		for _, w := range traceWitness {
			if w.resilience && o.Resilience == nil {
				continue
			}
			if got, want := ev.count(w.kind), w.want(o); got != want {
				a.fail("trace."+w.kind.String(), "session %d traced %d, ledger says %d", o.Index, got, want)
			}
		}
	}
	return Reconciliation{Ok: len(a) == 0, Problems: a}
}

// Render formats the report as a human-readable summary.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: %d sessions (%d failed) in %.2fs (%.1f sessions/s)\n",
		r.Sessions, r.Failed, r.ElapsedSec, r.SessionsPerSec)
	if r.VirtualSec > 0 {
		fmt.Fprintf(&b, "clock: %.2f simulated s in %.2f wall s (%.1fx real time)\n",
			r.VirtualSec, r.ElapsedSec, r.Speedup)
	}
	fmt.Fprintf(&b, "traffic: %.1f MB, %d segments\n",
		float64(r.BytesDownloaded)/1e6, r.SegmentsDownloaded)
	fmt.Fprintf(&b, "rebuffer (virtual s): p50 %.2f  p95 %.2f  p99 %.2f\n",
		r.RebufferSec.P50, r.RebufferSec.P95, r.RebufferSec.P99)
	fmt.Fprintf(&b, "throughput (Mbps):    p50 %.2f  p95 %.2f  p99 %.2f\n",
		r.ThroughputMbps.P50, r.ThroughputMbps.P95, r.ThroughputMbps.P99)
	fmt.Fprintf(&b, "QoE: %.3f mean (kernel), %.3f mean (latent true)\n", r.MeanQoE, r.MeanTrueQoE)

	section := func(title string, cohorts map[string]Cohort) {
		fmt.Fprintf(&b, "%s\n", title)
		for _, k := range slices.Sorted(maps.Keys(cohorts)) {
			c := cohorts[k]
			fmt.Fprintf(&b, "  %-12s %3d sessions  qoe %6.3f  true %6.3f  rebuf %6.2fs  thr %7.2f Mbps",
				k, c.Sessions, c.MeanQoE, c.MeanTrueQoE, c.MeanRebufferSec, c.MeanThroughputMbps)
			if c.Failed > 0 {
				fmt.Fprintf(&b, "  (%d FAILED)", c.Failed)
			}
			b.WriteByte('\n')
		}
	}
	section("by ABR:", r.ByABR)
	section("by trace:", r.ByTrace)
	if len(r.ByEpoch) > 1 || r.Refresh != nil {
		section("by epoch:", r.ByEpoch)
	}

	if r.Refresh != nil {
		switch {
		case r.Refresh.Err != "":
			fmt.Fprintf(&b, "refresh: FAILED: %s\n", r.Refresh.Err)
		case r.Refresh.Applied:
			fmt.Fprintf(&b, "refresh: published at %.2fs across %d videos; %d sessions converged on the new epoch, %d finished before it could reach them\n",
				r.Refresh.AppliedSec, len(r.Refresh.Epochs), r.Refresh.SessionsConverged, r.Refresh.SessionsFinishedEarly)
		}
	}

	if r.Ingest != nil {
		fmt.Fprintf(&b, "ingest: %d ratings from %d sessions (%d accepted, %d quarantined)",
			r.Ingest.RatingsPosted, r.Ingest.SessionsRated, r.Ingest.RatingsAccepted, r.Ingest.RatingsQuarantined)
		if ing := r.Origin.Ingest; ing != nil {
			fmt.Fprintf(&b, "; autopilot: %d refreshes triggered, %d applied", ing.RefreshesTriggered, ing.RefreshesApplied)
			if ing.RefreshErrors > 0 || ing.TriggersDropped > 0 {
				fmt.Fprintf(&b, " (%d errored, %d dropped)", ing.RefreshErrors, ing.TriggersDropped)
			}
		}
		b.WriteByte('\n')
	}

	if r.Chaos != nil {
		var injected int64
		for _, n := range r.Chaos.Injected {
			injected += n
		}
		fmt.Fprintf(&b, "chaos: %d faults injected (seed %#x), %d client retries", injected, r.Chaos.Seed, r.Chaos.Retries)
		if r.Chaos.Degradations > 0 {
			fmt.Fprintf(&b, "; degradations: %d fallbacks, %d stale-weight holds, %d ratings dropped",
				r.Chaos.SegmentFallbacks, r.Chaos.StaleWeightsKept, r.Chaos.RatingsDropped)
		}
		if len(r.Chaos.Injected) > 0 {
			b.WriteString("\n  by kind:")
			for _, k := range slices.Sorted(maps.Keys(r.Chaos.Injected)) {
				fmt.Fprintf(&b, " %s=%d", k, r.Chaos.Injected[k])
			}
		}
		b.WriteByte('\n')
	}

	if r.Events != nil {
		fmt.Fprintf(&b, "events: %d emitted across %d traced sessions, %d ring drops\n",
			r.Events.Emitted, r.Events.SessionsTraced, r.Events.Drops)
	}

	if len(r.ShardStats) > 0 {
		fmt.Fprintf(&b, "shards: %d origins behind the router; sessions", len(r.ShardStats))
		for _, s := range r.ShardStats {
			fmt.Fprintf(&b, " %d", s.SessionsCreated)
		}
		b.WriteByte('\n')
	}

	if r.Reconciliation.Ok {
		fmt.Fprintf(&b, "ledger: reconciled exactly with origin /stats (%d bytes, %d segments, %d sessions)\n",
			r.Origin.BytesServed, r.Origin.SegmentsServed, r.Origin.SessionsCreated)
	} else {
		fmt.Fprintf(&b, "ledger: RECONCILIATION FAILED\n")
		for _, p := range r.Reconciliation.Problems {
			fmt.Fprintf(&b, "  - %s\n", p)
		}
	}
	return strings.TrimRight(b.String(), "\n")
}
