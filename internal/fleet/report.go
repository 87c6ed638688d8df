package fleet

import (
	"fmt"
	"sort"
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
func drainOutcome(r *qlog.Ring, keepTrace bool) *EventsOutcome {
	events := r.Drain(nil)
	t := qlog.TallyOf(events, r.Drops())
	eo := &EventsOutcome{ByKind: map[string]int64{}, Bytes: t.Bytes, Drops: t.Drops}
	for k := 1; k < qlog.NumKinds; k++ {
		if n := t.Counts[k]; n != 0 {
			eo.ByKind[qlog.Kind(k).String()] = n
		}
	}
	if keepTrace {
		eo.Trace = events
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

// Reconciliation is the cross-check of the fleet's client-side ledgers
// against the origin's /stats. Ok demands exact equality — any streamed
// byte the two sides disagree about is an accounting bug, which is exactly
// what this harness exists to catch.
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
	// VirtualSec is the run's span on its own clock: wall time under the
	// default clock (≈ ElapsedSec), simulated time under a virtual clock.
	// Speedup is VirtualSec/ElapsedSec — how much faster than real time
	// the run covered its workload (≈1 on the wall clock, potentially
	// orders of magnitude under vclock).
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
	// cohorts ran): the client-summed rating counts reconciliation matches
	// exactly against the origin's /stats ingest counters.
	Ingest *IngestLedger `json:"ingest,omitempty"`
	// Chaos is the two-sided fault ledger (nil unless the fleet ran under
	// chaos): what the origin injected versus what the clients survived,
	// reconciled exactly per endpoint kind.
	Chaos *ChaosLedger `json:"chaos,omitempty"`
	// Events is the event-plane ledger (nil unless the fleet ran with
	// Config.Events): the per-kind sums of every completed session's trace
	// plus the shared registry's self-accounting. Reconciliation requires
	// the traced byte ledger to equal the client ledger (which already
	// equals origin /stats) and zero ring drops anywhere — three
	// independently produced accounts of one run, in exact agreement.
	Events *EventsLedger `json:"events,omitempty"`
	// Origin is the server's /stats snapshot after the fleet drained.
	Origin origin.Stats `json:"origin"`
	// ShardStats holds the per-shard ledgers behind Origin when the fleet
	// ran against a multi-origin router (Config.OriginShards > 1); empty for
	// a single origin. Reconciliation proves Origin is exactly their sum.
	ShardStats []origin.Stats `json:"origin_shards,omitempty"`
	// Reconciliation cross-checks the two ledgers.
	Reconciliation Reconciliation `json:"reconciliation"`
	// Outcomes holds the per-session rows when Config.KeepOutcomes is set.
	Outcomes []SessionOutcome `json:"outcomes,omitempty"`
}

// IngestLedger sums the fleet's client-side rating counters. Reconciliation
// demands it matches the origin's ingest stats exactly: every rating a
// client posted was either accepted into a window's evidence or
// quarantined for epoch staleness, and nothing else reached the aggregator.
type IngestLedger struct {
	RatingsPosted      int64 `json:"ratings_posted"`
	RatingsAccepted    int64 `json:"ratings_accepted"`
	RatingsQuarantined int64 `json:"ratings_quarantined"`
	// SessionsRated counts sessions that posted at least one rating.
	SessionsRated int `json:"sessions_rated"`
}

// ChaosLedger is the fleet's two-sided fault ledger. Reconciliation
// demands Injected and Survived agree exactly per endpoint kind: every
// fault the origin injected was observed by exactly one client request,
// and no client counted a fault the origin never threw.
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
	for i := range outcomes {
		o := &outcomes[i]
		accumulate(byABR, o.ABR, o)
		accumulate(byTrace, o.Trace, o)
		accumulate(byEpoch, o.EpochKey(), o)
		if o.Err != "" {
			r.Failed++
			continue
		}
		r.BytesDownloaded += o.BytesDownloaded
		r.SegmentsDownloaded += int64(o.Segments)
		rebuf = append(rebuf, o.RebufferSec)
		thrMbps = append(thrMbps, o.ThroughputBps/1e6)
		qoes = append(qoes, o.QoE)
		trueQoEs = append(trueQoEs, o.TrueQoE)
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
	// A closed-loop run (the origin reports ingest counters) gets the
	// client-side rating ledger, failed sessions included: whatever a
	// session posted before dying was still counted by the origin.
	if st.Ingest != nil {
		led := &IngestLedger{}
		for i := range outcomes {
			o := &outcomes[i]
			led.RatingsPosted += int64(o.RatingsPosted)
			led.RatingsAccepted += int64(o.RatingsAccepted)
			led.RatingsQuarantined += int64(o.RatingsQuarantined)
			if o.RatingsPosted > 0 {
				led.SessionsRated++
			}
		}
		r.Ingest = led
	}
	// A chaos run (the origin reports injector counters) gets the summed
	// client-side fault ledger, failed sessions included: whatever a dying
	// session observed was still injected by the origin.
	if st.Chaos != nil {
		cl := &ChaosLedger{
			Injected:       map[string]int64{},
			InjectedByMode: map[string]int64{},
			Survived:       map[string]int64{},
		}
		for k, n := range st.Chaos.ByKind {
			cl.Injected[k] = n
		}
		for m, n := range st.Chaos.ByMode {
			cl.InjectedByMode[m] = n
		}
		for i := range outcomes {
			res := outcomes[i].Resilience
			if res == nil {
				continue
			}
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
		r.Chaos = cl
	}
	if metrics != nil {
		el := &EventsLedger{
			ByKind:         map[string]int64{},
			Emitted:        metrics.EventsEmitted.Load(),
			Drops:          metrics.RingDrops.Load(),
			FaultsMirrored: faultEvents,
		}
		for i := range outcomes {
			o := &outcomes[i]
			if o.Events == nil {
				continue
			}
			el.SessionsTraced++
			if o.Err != "" {
				// A failed session's partial trace stays on its row but is
				// excluded from the sums, exactly like its byte ledger.
				continue
			}
			el.Bytes += o.Events.Bytes
			for k, n := range o.Events.ByKind {
				el.ByKind[k] += n
			}
		}
		r.Events = el
	}
	r.RebufferSec = percentilesOf(rebuf)
	r.ThroughputMbps = percentilesOf(thrMbps)
	r.MeanQoE = stats.Mean(qoes)
	r.MeanTrueQoE = stats.Mean(trueQoEs)
	r.Reconciliation = reconcile(outcomes, r, st)
	if keepOutcomes {
		r.Outcomes = outcomes
	}
	return r
}

// reconcile asserts the client-side and origin-side ledgers agree exactly.
func reconcile(outcomes []SessionOutcome, r *Report, st origin.Stats) Reconciliation {
	var rec Reconciliation
	problem := func(format string, args ...any) {
		rec.Problems = append(rec.Problems, fmt.Sprintf(format, args...))
	}
	for i := range outcomes {
		if outcomes[i].Err != "" {
			problem("session %d (%s/%s/%s) failed: %s",
				outcomes[i].Index, outcomes[i].Video, outcomes[i].Trace, outcomes[i].ABR, outcomes[i].Err)
		}
	}
	if st.BytesServed != r.BytesDownloaded {
		problem("origin served %d bytes, fleet downloaded %d", st.BytesServed, r.BytesDownloaded)
	}
	if st.SegmentsServed != r.SegmentsDownloaded {
		problem("origin served %d segments, fleet downloaded %d", st.SegmentsServed, r.SegmentsDownloaded)
	}
	if st.SessionsCreated != int64(r.Sessions) {
		problem("origin created %d sessions for a fleet of %d", st.SessionsCreated, r.Sessions)
	}
	if st.SessionsClosed != int64(r.Sessions) {
		problem("origin closed %d sessions of %d (leaks or early expiry)", st.SessionsClosed, r.Sessions)
	}
	if st.ActiveSessions != 0 {
		problem("%d sessions still active after the fleet drained", st.ActiveSessions)
	}
	var hitSum int64
	for _, n := range st.VideoHits {
		hitSum += n
	}
	if hitSum != r.SegmentsDownloaded {
		problem("per-video hits sum to %d, fleet downloaded %d segments", hitSum, r.SegmentsDownloaded)
	}

	// Sharded runs: the router's merged ledger must be exactly the sum of
	// the per-shard ledgers it reports, and no individual shard may leak a
	// session — session stickiness means every lifecycle event of a session
	// lands on one shard, so per-shard active counts drain to zero just like
	// a single origin's.
	if len(r.ShardStats) > 0 {
		var bytes, segs, created, closed, expired int64
		var active int
		hits := map[string]int64{}
		for i, s := range r.ShardStats {
			bytes += s.BytesServed
			segs += s.SegmentsServed
			created += s.SessionsCreated
			closed += s.SessionsClosed
			expired += s.SessionsExpired
			active += s.ActiveSessions
			for name, n := range s.VideoHits {
				hits[name] += n
			}
			if s.ActiveSessions != 0 {
				problem("shard %d still holds %d active sessions after the fleet drained", i, s.ActiveSessions)
			}
		}
		if bytes != st.BytesServed || segs != st.SegmentsServed {
			problem("shard ledgers sum to %d bytes / %d segments, merged /stats reports %d / %d",
				bytes, segs, st.BytesServed, st.SegmentsServed)
		}
		if created != st.SessionsCreated || closed != st.SessionsClosed || expired != st.SessionsExpired || active != st.ActiveSessions {
			problem("shard session counters sum to %d created / %d closed / %d expired / %d active, merged /stats reports %d / %d / %d / %d",
				created, closed, expired, active, st.SessionsCreated, st.SessionsClosed, st.SessionsExpired, st.ActiveSessions)
		}
		for name, n := range hits {
			if st.VideoHits[name] != n {
				problem("shard hits for %q sum to %d, merged /stats reports %d", name, n, st.VideoHits[name])
			}
		}
	}

	// Epoch accounting: every epoch cohort must be made of real sessions
	// (the counts partition the fleet), no session may claim an epoch the
	// origin never published, and a scheduled refresh must have landed and
	// be reflected in /stats exactly.
	var epochSessions int
	for _, c := range r.ByEpoch {
		epochSessions += c.Sessions
	}
	if epochSessions != r.Sessions {
		problem("epoch cohorts cover %d sessions of %d", epochSessions, r.Sessions)
	}
	for i := range outcomes {
		o := &outcomes[i]
		if o.Err != "" {
			continue
		}
		// WeightEpochs omits never-published videos, so the map's zero
		// value is exactly the origin's epoch for them — a session
		// claiming any positive epoch on a weightless catalog is flagged
		// too.
		if originEpoch := st.WeightEpochs[o.Video]; o.WeightEpoch > originEpoch {
			problem("session %d ended on epoch %d of %q, origin only published %d",
				o.Index, o.WeightEpoch, o.Video, originEpoch)
		}
	}
	// Closed-loop ingest ledger: the client-side rating sums and the
	// origin's aggregator counters must agree exactly, the autopilot must
	// have settled (every trigger applied, no errors), and every epoch bump
	// the weight service counted must be attributable — an autonomous
	// ingest refresh or the scheduled operator refresh, nothing else.
	if st.Ingest != nil && r.Ingest != nil {
		led, ing := r.Ingest, st.Ingest
		if led.RatingsPosted != led.RatingsAccepted+led.RatingsQuarantined {
			problem("fleet posted %d ratings but accounts for %d accepted + %d quarantined",
				led.RatingsPosted, led.RatingsAccepted, led.RatingsQuarantined)
		}
		if led.RatingsAccepted != ing.RatingsAccepted {
			problem("fleet counted %d accepted ratings, origin ingest %d", led.RatingsAccepted, ing.RatingsAccepted)
		}
		if led.RatingsQuarantined != ing.RatingsQuarantined {
			problem("fleet counted %d quarantined ratings, origin ingest %d", led.RatingsQuarantined, ing.RatingsQuarantined)
		}
		if ing.RatingsRejected != 0 {
			problem("origin rejected %d malformed ratings", ing.RatingsRejected)
		}
		if ing.RefreshErrors != 0 {
			problem("%d autonomous refreshes errored", ing.RefreshErrors)
		}
		if ing.RefreshesTriggered != ing.RefreshesApplied {
			problem("autopilot triggered %d refreshes but applied %d (unsettled at /stats time)",
				ing.RefreshesTriggered, ing.RefreshesApplied)
		}
		expectedRefreshes := ing.RefreshesApplied
		if r.Refresh != nil && r.Refresh.Applied {
			expectedRefreshes += int64(len(r.Refresh.Epochs))
		}
		if st.ProfilesRefreshed != expectedRefreshes {
			problem("/stats counts %d epoch bumps, %d are attributable (autonomy violated?)",
				st.ProfilesRefreshed, expectedRefreshes)
		}
	}
	// Chaos fault ledger: every fault the injector threw must have been
	// observed by exactly one client request, per endpoint kind — a deficit
	// means a fault vanished (e.g. the transport transparently retried over
	// the clients' heads), a surplus means a client blamed chaos for a
	// failure the origin never injected.
	if st.Chaos != nil && r.Chaos != nil {
		if st.Chaos.JournalDropped != 0 {
			problem("chaos journal dropped %d events (run not replayable)", st.Chaos.JournalDropped)
		}
		kinds := map[string]bool{}
		for k := range r.Chaos.Injected {
			kinds[k] = true
		}
		for k := range r.Chaos.Survived {
			kinds[k] = true
		}
		for _, k := range sortedKeys(kinds) {
			if inj, srv := r.Chaos.Injected[k], r.Chaos.Survived[k]; inj != srv {
				problem("origin injected %d %s faults, clients observed %d", inj, k, srv)
			}
		}
	}
	// Event-plane witness: every completed session's trace tally must agree
	// exactly with the session's own ledgers — which reconciliation has
	// already tied to origin /stats above — making the traces a third
	// independently produced account of the run. Any ring drop anywhere
	// voids the witness: a trace with holes proves nothing.
	if r.Events != nil {
		if r.Events.Drops != 0 {
			problem("event plane dropped %d events (rings undersized; traces are not a witness)", r.Events.Drops)
		}
		if r.Events.Bytes != r.BytesDownloaded {
			problem("event traces account %d payload bytes, client ledger %d", r.Events.Bytes, r.BytesDownloaded)
		}
		if st.Chaos != nil {
			if journaled := st.Chaos.Total - st.Chaos.JournalDropped; r.Events.FaultsMirrored != journaled {
				problem("process ring mirrored %d injected faults, the chaos journal holds %d", r.Events.FaultsMirrored, journaled)
			}
		}
		for i := range outcomes {
			o := &outcomes[i]
			ev := o.Events
			if ev == nil {
				if o.Err == "" {
					problem("session %d completed without an event trace", o.Index)
				}
				continue
			}
			if ev.Drops != 0 {
				problem("session %d event ring dropped %d events", o.Index, ev.Drops)
			}
			if o.Err != "" {
				// A failed session's trace is legitimately partial; the
				// failure itself is already a problem above.
				continue
			}
			if n := ev.count(qlog.KindSessionJoin); n != 1 {
				problem("session %d traced %d session_join events", o.Index, n)
			}
			if n := ev.count(qlog.KindSessionLeave); n != 1 {
				problem("session %d traced %d session_leave events", o.Index, n)
			}
			if n := ev.count(qlog.KindDecision); n != int64(o.Segments) {
				problem("session %d traced %d decisions for %d segments", o.Index, n, o.Segments)
			}
			if n := ev.count(qlog.KindChunkDone); n != int64(o.Segments) {
				problem("session %d traced %d chunk_done events for %d segments", o.Index, n, o.Segments)
			}
			if ev.Bytes != o.BytesDownloaded {
				problem("session %d traced %d payload bytes, client ledger %d", o.Index, ev.Bytes, o.BytesDownloaded)
			}
			var fallbacks int64
			if o.Resilience != nil {
				fallbacks = o.Resilience.SegmentFallbacks
			}
			if n := ev.count(qlog.KindChunkStart); n != int64(o.Segments)+fallbacks {
				problem("session %d traced %d chunk_start events for %d segments + %d fallbacks",
					o.Index, n, o.Segments, fallbacks)
			}
			if begin, end := ev.count(qlog.KindStallBegin), ev.count(qlog.KindStallEnd); begin != end {
				problem("session %d traced %d stall_begin but %d stall_end events", o.Index, begin, end)
			}
			if n := ev.count(qlog.KindEpochAdopted); n != int64(o.WeightRefreshes) {
				problem("session %d traced %d epoch adoptions, ledger says %d refreshes", o.Index, n, o.WeightRefreshes)
			}
			if n := ev.count(qlog.KindRatingPosted); n != int64(o.RatingsPosted) {
				problem("session %d traced %d rating_posted events, ledger says %d", o.Index, n, o.RatingsPosted)
			}
			if n := ev.count(qlog.KindRatingAccepted); n != int64(o.RatingsAccepted) {
				problem("session %d traced %d rating_accepted events, ledger says %d", o.Index, n, o.RatingsAccepted)
			}
			if n := ev.count(qlog.KindRatingQuarantined); n != int64(o.RatingsQuarantined) {
				problem("session %d traced %d rating_quarantined events, ledger says %d", o.Index, n, o.RatingsQuarantined)
			}
			if res := o.Resilience; res != nil {
				if n := ev.count(qlog.KindRetry); n != res.Retries {
					problem("session %d traced %d retries, resilience ledger says %d", o.Index, n, res.Retries)
				}
				if n := ev.count(qlog.KindFaultSurvived); n != res.Faults() {
					problem("session %d traced %d faults survived, resilience ledger says %d", o.Index, n, res.Faults())
				}
				if n := ev.count(qlog.KindDegradation); n != res.Degradations() {
					problem("session %d traced %d degradations, resilience ledger says %d", o.Index, n, res.Degradations())
				}
			}
		}
	}
	if r.Refresh != nil {
		switch {
		case r.Refresh.Err != "":
			problem("refresh failed: %s", r.Refresh.Err)
		case !r.Refresh.Applied:
			problem("scheduled refresh never applied")
		default:
			// The autopilot may legitimately bump past the operator refresh
			// in a closed-loop run, so /stats must be at least the published
			// epoch — anything lower means the publish was lost.
			for videoName, epoch := range r.Refresh.Epochs {
				if st.WeightEpochs[videoName] < epoch {
					problem("refresh published epoch %d for %q, /stats reports %d",
						epoch, videoName, st.WeightEpochs[videoName])
				}
			}
			if st.ProfilesRefreshed < int64(len(r.Refresh.Epochs)) {
				problem("/stats counts %d refreshes for %d published", st.ProfilesRefreshed, len(r.Refresh.Epochs))
			}
			// The reach proof: the per-segment epoch beacon bounds adoption
			// at one segment download, so a session still on the old epoch
			// is only legitimate if it finished around the bump — before
			// it, or so soon after that its last decision predated the
			// publish. The slack covers everything one final segment can
			// legitimately take after that decision: its buffer-full wait
			// (at most one chunk duration of wall clock, since each chunk
			// credits one) plus its download (bounded by the session's
			// whole download wall time). A stale session finishing later
			// than that provably decided after observing the new epoch and
			// is a reach failure.
			for i := range outcomes {
				o := &outcomes[i]
				if o.Err != "" {
					continue
				}
				want := r.Refresh.Epochs[o.Video]
				if o.WeightEpoch >= want {
					// On the refreshed epoch, or past it (an autonomous bump
					// landed after the operator's): the refresh reached it.
					r.Refresh.SessionsConverged++
					continue
				}
				slack := o.DownloadSec*o.TimeScale + video.ChunkDuration.Seconds()*o.TimeScale
				if o.FinishedSec > r.Refresh.AppliedSec+slack {
					problem("session %d (%s) streamed past the refresh (finished %.2fs, bump %.2fs) yet ended on epoch %d, not %d",
						o.Index, o.Video, o.FinishedSec, r.Refresh.AppliedSec, o.WeightEpoch, want)
				} else {
					r.Refresh.SessionsFinishedEarly++
				}
			}
		}
	}
	rec.Ok = len(rec.Problems) == 0
	return rec
}

// toSet lifts a counter map's keys into a set for sortedKeys.
func toSet(m map[string]int64) map[string]bool {
	set := make(map[string]bool, len(m))
	for k := range m {
		set[k] = true
	}
	return set
}

// sortedKeys returns a set's keys in deterministic order, so problem lists
// and rendered sections are stable across runs.
func sortedKeys(set map[string]bool) []string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
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
		keys := make([]string, 0, len(cohorts))
		for k := range cohorts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "%s\n", title)
		for _, k := range keys {
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
			for _, k := range sortedKeys(toSet(r.Chaos.Injected)) {
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
