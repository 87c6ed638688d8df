package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"

	"sensei/internal/ingest"
	"sensei/internal/origin"
	"sensei/internal/video"
)

// reconciledReport is one passing report with every row of the
// reconciliation table live: goldenConfig's fleet (single origin, chaos,
// refresh, events) given a closed-loop ingest ledger, a catalog video the
// refresh published but no session streamed, and a two-shard split of its
// /stats. It comes back as JSON, so each use decodes a fresh copy.
func reconciledReport(t *testing.T) []byte {
	t.Helper()
	r, err := Run(context.Background(), goldenConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	r.Ingest = &IngestLedger{RatingsPosted: 10, RatingsAccepted: 7, RatingsQuarantined: 3, SessionsRated: 2}
	r.Origin.Ingest = &ingest.Stats{RatingsAccepted: 7, RatingsQuarantined: 3, RefreshesTriggered: 2, RefreshesApplied: 2}
	r.Refresh.Epochs["unwatched"] = 2
	r.Origin.WeightEpochs["unwatched"] = 2
	r.Origin.ProfilesRefreshed = 2 + int64(len(r.Refresh.Epochs))
	half := func(n int64) (int64, int64) { return n / 2, n - n/2 }
	a, b := origin.Stats{VideoHits: map[string]int64{}}, origin.Stats{VideoHits: map[string]int64{}}
	a.BytesServed, b.BytesServed = half(r.Origin.BytesServed)
	a.SegmentsServed, b.SegmentsServed = half(r.Origin.SegmentsServed)
	a.SessionsCreated, b.SessionsCreated = half(r.Origin.SessionsCreated)
	a.SessionsClosed, b.SessionsClosed = half(r.Origin.SessionsClosed)
	a.SessionsExpired, b.SessionsExpired = half(r.Origin.SessionsExpired)
	for name, n := range r.Origin.VideoHits {
		a.VideoHits[name], b.VideoHits[name] = half(n)
	}
	r.ShardStats = []origin.Stats{a, b}
	js, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return js
}

// TestReconcileFlagsEachBrokenLedger makes every reconciliation row fire on
// its own: each case breaks one ledger of a reconciled report, mostly by
// one unit, and reconcile must return exactly one problem, named after
// that row. It also pins that reconcile only reads: called twice it
// returns the same verdict and leaves the report as it found it.
func TestReconcileFlagsEachBrokenLedger(t *testing.T) {
	base := reconciledReport(t)
	fresh := func() *Report {
		var r Report
		if err := json.Unmarshal(base, &r); err != nil {
			t.Fatal(err)
		}
		return &r
	}
	r0 := fresh()
	if rec := reconcile(r0.Outcomes, r0); !rec.Ok {
		t.Fatalf("the base report does not reconcile: %q", rec.Problems)
	}
	name := r0.Outcomes[0].Video
	kind := slices.Sorted(maps.Keys(r0.Chaos.Injected))[0]
	cohort := slices.Sorted(maps.Keys(r0.ByEpoch))[0]
	// A session the refresh legitimately never reached: it finished on the
	// old epoch, within the reach proof's slack of the bump.
	stale := slices.IndexFunc(r0.Outcomes, func(o SessionOutcome) bool { return o.WeightEpoch < r0.Refresh.Epochs[o.Video] })
	if stale < 0 {
		t.Fatal("every session converged; the reach proof has nothing to excuse")
	}

	type broken struct {
		row    string
		mutate func(r *Report)
	}
	// Still on the old epoch a second after its slack ran out.
	reach := broken{"refresh.reach", func(r *Report) {
		o := &r.Outcomes[stale]
		o.FinishedSec = r.Refresh.AppliedSec + (o.DownloadSec+video.ChunkDuration.Seconds())*o.TimeScale + 1
	}}
	cases := []broken{
		{"lifecycle.failed", func(r *Report) { r.Outcomes[0].Err = "stream: connection reset" }},
		// A broken origin-side ledger is broken on the shard that holds the
		// session too, so the shard sums still hold.
		{"lifecycle.bytes", func(r *Report) { r.Origin.BytesServed++; r.ShardStats[0].BytesServed++ }},
		{"lifecycle.segments", func(r *Report) { r.Origin.SegmentsServed--; r.ShardStats[0].SegmentsServed-- }},
		{"lifecycle.created", func(r *Report) { r.Origin.SessionsCreated++; r.ShardStats[0].SessionsCreated++ }},
		{"lifecycle.closed", func(r *Report) { r.Origin.SessionsClosed--; r.ShardStats[0].SessionsClosed-- }},
		{"lifecycle.active", func(r *Report) { r.Origin.ActiveSessions++; r.ShardStats[1].ActiveSessions++ }},
		{"lifecycle.video_hits", func(r *Report) { r.Origin.VideoHits[name]++; r.ShardStats[0].VideoHits[name]++ }},
		{"shards.bytes_served", func(r *Report) { r.ShardStats[1].BytesServed-- }},
		{"shards.segments_served", func(r *Report) { r.ShardStats[1].SegmentsServed++ }},
		{"shards.sessions_created", func(r *Report) { r.ShardStats[1].SessionsCreated-- }},
		{"shards.sessions_closed", func(r *Report) { r.ShardStats[1].SessionsClosed++ }},
		{"shards.sessions_expired", func(r *Report) { r.ShardStats[1].SessionsExpired++ }},
		{"shards.active_sessions", func(r *Report) { r.Origin.ActiveSessions++ }},
		{"shards.video_hits", func(r *Report) { r.ShardStats[1].VideoHits[name]-- }},
		{"epoch.cohorts", func(r *Report) { c := r.ByEpoch[cohort]; c.Sessions++; r.ByEpoch[cohort] = c }},
		{"epoch.published", func(r *Report) { r.Outcomes[0].WeightEpoch++ }},
		{"ingest.posted", func(r *Report) { r.Ingest.RatingsPosted++ }},
		{"ingest.accepted", func(r *Report) { r.Origin.Ingest.RatingsAccepted++ }},
		{"ingest.quarantined", func(r *Report) { r.Origin.Ingest.RatingsQuarantined-- }},
		{"ingest.rejected", func(r *Report) { r.Origin.Ingest.RatingsRejected++ }},
		{"ingest.refresh_errors", func(r *Report) { r.Origin.Ingest.RefreshErrors++ }},
		{"ingest.settled", func(r *Report) { r.Origin.Ingest.RefreshesTriggered++ }},
		{"ingest.attributable", func(r *Report) { r.Origin.ProfilesRefreshed++ }},
		// A fault the journal dropped still counts in the injector's total.
		{"chaos.journal_dropped", func(r *Report) { r.Origin.Chaos.JournalDropped++; r.Origin.Chaos.Total++ }},
		{"chaos.survived", func(r *Report) { r.Chaos.Survived[kind]-- }},
		{"events.drops", func(r *Report) { r.Events.Drops++ }},
		{"events.bytes", func(r *Report) { r.Events.Bytes-- }},
		{"events.faults_mirrored", func(r *Report) { r.Events.FaultsMirrored++ }},
		{"trace.present", func(r *Report) { r.Outcomes[0].Events = nil }},
		{"trace.drops", func(r *Report) { r.Outcomes[0].Events.Drops++ }},
		{"trace.bytes", func(r *Report) { r.Outcomes[0].Events.Bytes++ }},
		{"refresh.applied", func(r *Report) { r.Refresh.Err = "publishing refresh: weight service closed" }},
		{"refresh.stats_epoch", func(r *Report) { r.Origin.WeightEpochs["unwatched"]-- }},
		// With an autopilot, ingest.attributable pins the bumps exactly;
		// without one only the lower bound applies.
		{"refresh.stats_bumps", func(r *Report) {
			r.Ingest, r.Origin.Ingest = nil, nil
			r.Origin.ProfilesRefreshed = int64(len(r.Refresh.Epochs)) - 1
		}},
		reach,
	}
	for _, w := range traceWitness {
		k := w.kind.String()
		cases = append(cases, broken{"trace." + k, func(r *Report) { r.Outcomes[0].Events.ByKind[k]++ }})
	}
	for _, c := range shardCounters {
		if !slices.ContainsFunc(cases, func(b broken) bool { return b.row == c.name }) {
			t.Errorf("no case breaks %s", c.name)
		}
	}
	for _, c := range cases {
		t.Run(c.row, func(t *testing.T) {
			r := fresh()
			c.mutate(r)
			rec := reconcile(r.Outcomes, r)
			if rec.Ok || len(rec.Problems) != 1 || !strings.HasPrefix(rec.Problems[0], c.row+": ") {
				t.Fatalf("ok=%v, problems %q; want exactly one, naming %s", rec.Ok, rec.Problems, c.row)
			}
		})
	}

	// Reconciling only reads: on a passing report with a landed refresh,
	// and on one the reach proof rejects.
	for _, c := range []broken{{"reconciled", func(*Report) {}}, reach} {
		r := fresh()
		c.mutate(r)
		before, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		first, second := reconcile(r.Outcomes, r), reconcile(r.Outcomes, r)
		if !reflect.DeepEqual(first, second) {
			t.Errorf("%s: reconcile answered %+v, then %+v", c.row, first, second)
		}
		after, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Errorf("%s: reconcile changed the report it checked", c.row)
		}
	}
}
