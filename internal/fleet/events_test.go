package fleet

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"sensei/internal/chaos"
	"sensei/internal/qlog"
	"sensei/internal/video"
)

// TestFleetEvents is the event-plane tentpole proof: the full chaos
// scenario — every endpoint kind faulted, an operator refresh mid-run,
// rater cohorts closing the feedback loop — re-run with per-session trace
// rings on, and the traces reconciled as a third independent witness:
// event tallies ≡ session ledgers ≡ origin /stats, with zero ring drops
// anywhere. Every kind in the client taxonomy must actually fire.
func TestFleetEvents(t *testing.T) {
	sessions := 64
	if testing.Short() {
		sessions = 16
	}
	spec := chaosFleetSpec()
	cfg := chaosFleetConfig(t, sessions)
	cfg.Chaos = spec
	cfg.Events = &EventsSpec{KeepTraces: true}
	report, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	if report.Failed != 0 {
		t.Fatalf("%d sessions lost below the fault ceiling:\n%s", report.Failed, report.Render())
	}
	// Reconciliation.Ok now includes every third-witness check in
	// reconcile(): per-session tallies against the session's own ledgers,
	// traced bytes against the client byte ledger (itself already tied to
	// origin /stats), and zero drops.
	if !report.Reconciliation.Ok {
		t.Fatalf("events fleet did not reconcile:\n%s", report.Render())
	}
	el := report.Events
	if el == nil {
		t.Fatal("events fleet report carries no event ledger")
	}
	if el.Drops != 0 {
		t.Fatalf("event plane dropped %d events", el.Drops)
	}
	if el.SessionsTraced != sessions {
		t.Fatalf("traced %d sessions of %d", el.SessionsTraced, sessions)
	}
	if el.Emitted == 0 {
		t.Fatal("registry counted zero emitted events")
	}

	// The three byte ledgers in one line: traces ≡ clients ≡ origin.
	if el.Bytes != report.BytesDownloaded || el.Bytes != report.Origin.BytesServed {
		t.Fatalf("byte ledgers disagree: traces %d, clients %d, origin %d",
			el.Bytes, report.BytesDownloaded, report.Origin.BytesServed)
	}

	// Aggregate tallies against the independent fleet ledgers.
	if n := el.ByKind[qlog.KindChunkDone.String()]; n != report.SegmentsDownloaded {
		t.Fatalf("traced %d chunk_done events for %d segments", n, report.SegmentsDownloaded)
	}
	if n := el.ByKind[qlog.KindSessionJoin.String()]; n != int64(sessions) {
		t.Fatalf("traced %d session_join events for %d sessions", n, sessions)
	}
	if cl := report.Chaos; cl != nil {
		if n := el.ByKind[qlog.KindRetry.String()]; n != cl.Retries {
			t.Fatalf("traced %d retries, chaos ledger says %d", n, cl.Retries)
		}
		var injected int64
		for _, c := range cl.Injected {
			injected += c
		}
		if n := el.ByKind[qlog.KindFaultSurvived.String()]; n != injected {
			t.Fatalf("traced %d faults survived, origin injected %d", n, injected)
		}
	}
	if ing := report.Ingest; ing != nil {
		if n := el.ByKind[qlog.KindRatingPosted.String()]; n != ing.RatingsPosted {
			t.Fatalf("traced %d rating_posted events, ingest ledger says %d", n, ing.RatingsPosted)
		}
	}
	var refreshes int64
	for i := range report.Outcomes {
		refreshes += int64(report.Outcomes[i].WeightRefreshes)
	}
	if n := el.ByKind[qlog.KindEpochAdopted.String()]; n != refreshes {
		t.Fatalf("traced %d epoch adoptions, outcomes say %d refreshes", n, refreshes)
	}

	// Coverage: this scenario exercises the whole client-side taxonomy —
	// a kind that never fires is either dead code or a broken emitter.
	for _, k := range []qlog.Kind{
		qlog.KindSessionJoin, qlog.KindSessionLeave, qlog.KindDecision,
		qlog.KindChunkStart, qlog.KindChunkDone, qlog.KindBufferSample,
		qlog.KindEpochAdopted, qlog.KindFaultSurvived, qlog.KindRetry,
		qlog.KindBackoff, qlog.KindRatingPosted,
	} {
		if el.ByKind[k.String()] == 0 {
			t.Errorf("no %s events traced across the whole fleet", k)
		}
	}

	// KeepTraces: every outcome carries its full ordered trace, seq-dense
	// from 1, bracketed by session_join and session_leave.
	for i := range report.Outcomes {
		o := &report.Outcomes[i]
		tr := o.Events.Trace
		if len(tr) == 0 {
			t.Fatalf("session %d kept no trace", o.Index)
		}
		// Join-path faults (fault_survived / retry / backoff) legitimately
		// precede session_join; nothing else may.
		for j, ev := range tr {
			if ev.Kind == qlog.KindSessionJoin {
				break
			}
			switch ev.Kind {
			case qlog.KindFaultSurvived, qlog.KindRetry, qlog.KindBackoff:
			default:
				t.Fatalf("session %d traced %s at position %d before session_join", o.Index, ev.Kind, j)
			}
		}
		if last := tr[len(tr)-1]; last.Kind != qlog.KindSessionLeave {
			t.Fatalf("session %d trace ends with %s, want session_leave", o.Index, last.Kind)
		}
		for j, ev := range tr {
			if ev.Seq != uint64(j+1) {
				t.Fatalf("session %d trace seq %d at position %d (holes in a zero-drop ring)",
					o.Index, ev.Seq, j)
			}
			if j > 0 && ev.T < tr[j-1].T {
				t.Fatalf("session %d trace time went backwards at seq %d", o.Index, ev.Seq)
			}
		}
	}

	if !strings.Contains(report.Render(), "events:") {
		t.Fatalf("render carries no events line:\n%s", report.Render())
	}
}

// TestFleetEventsSharded runs the event plane behind the consistent-hash
// router: one registry shared across every shard, per-session rings minted
// by whichever shard owns the session, and the same exact third-witness
// reconciliation a single origin gets.
func TestFleetEventsSharded(t *testing.T) {
	sessions := 24
	if testing.Short() {
		sessions = 12
	}
	cfg := Config{
		Sessions:     sessions,
		OriginShards: 3,
		Videos:       testCatalog(t, 5),
		Traces: flatTraces(map[string]float64{
			"fast": 3.2e7,
			"slow": 2e6,
		}),
		TimeScales:   []float64{0.05},
		Profile:      func(v *video.Video) ([]float64, error) { return v.TrueSensitivity(), nil },
		Events:       &EventsSpec{},
		KeepOutcomes: true,
	}
	report, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if report.Failed != 0 {
		t.Fatalf("%d sessions failed:\n%s", report.Failed, report.Render())
	}
	if !report.Reconciliation.Ok {
		t.Fatalf("sharded events fleet did not reconcile:\n%s", report.Render())
	}
	el := report.Events
	if el == nil {
		t.Fatal("sharded report carries no event ledger")
	}
	if el.Drops != 0 {
		t.Fatalf("event plane dropped %d events", el.Drops)
	}
	if el.Bytes != report.Origin.BytesServed {
		t.Fatalf("traces account %d bytes, merged origin ledger %d", el.Bytes, report.Origin.BytesServed)
	}
	// The shared registry saw both sides: client emits plus the shards'
	// origin-side mirrors, so Emitted strictly exceeds the trace sums.
	var traced int64
	for _, n := range el.ByKind {
		traced += n
	}
	if el.Emitted <= traced {
		t.Fatalf("registry emitted %d events, client traces alone hold %d — origin mirrors missing",
			el.Emitted, traced)
	}
}

// TestFleetEventsOutlastTheProcessRing is the regression test for chaos +
// events fleets of any size: the backend mirrors every injected fault onto
// a process ring of qlog.DefaultRingCapacity slots that nobody but the
// harness reads, so a run injecting more faults than that used to end
// "event plane dropped N events". The harness now drains the ring (every
// shard's, behind the router) as sessions finish, and the drained mirrors
// are one more witness: as many as the chaos journal has entries.
func TestFleetEventsOutlastTheProcessRing(t *testing.T) {
	for name, shards := range map[string]int{"single origin": 1, "three shards": 3} {
		t.Run(name, func(t *testing.T) {
			report, err := Run(context.Background(), Config{
				Sessions:     640,
				Workers:      32,
				OriginShards: shards,
				Videos:       testCatalog(t, 6),
				Traces:       flatTraces(map[string]float64{"med": 4e6, "slow": 1.5e6}),
				TimeScales:   []float64{1},
				// Segment streams are shard-sticky; a retried join is minted a
				// new ID, may land on a shard whose injector has not seen its
				// stream, and at this rate would exhaust the retry budget.
				Chaos:  &ChaosSpec{Endpoints: map[chaos.Kind]chaos.Spec{chaos.KindSegment: {Rate: 0.25}}},
				Events: &EventsSpec{},
			})
			if err != nil {
				t.Fatal(err)
			}
			if report.Failed != 0 || !report.Reconciliation.Ok {
				t.Fatalf("fleet did not reconcile:\n%s", report.Render())
			}
			injected := report.Origin.Chaos.Total
			if injected <= qlog.DefaultRingCapacity {
				t.Fatalf("only %d faults injected: the run does not outlast a %d-slot ring", injected, qlog.DefaultRingCapacity)
			}
			if got, journal := report.Events.FaultsMirrored, int64(len(report.Chaos.Events)); got != injected || journal != injected {
				t.Fatalf("%d faults injected, %d journaled, %d mirrored through the process ring", injected, journal, got)
			}
		})
	}
}

// TestFleetEventsBytesPerSession pins what the event plane costs the heap
// per session: a fixed virtual-time fleet with chaos and events on and no
// raters (fleet_chaos's planes minus the nondeterministic one), bytes
// allocated by the whole process during Run (runtime.MemStats.TotalAlloc)
// over sessions run. A count in bytes, not a time: it repeats to within
// a few hundred bytes at any GOMAXPROCS. Measured: 62.2k with the closed
// loop's bodies, weight arrays and manifests allocating only what they
// keep and no ServeMux built for the fleet; 63.2k with each ring
// allocating 8 KiB blocks of slots as events reach them; 345.6k while
// every session built two 1 024-slot rings, client and origin mirror,
// 128 KiB each, before its first event.
func TestFleetEventsBytesPerSession(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the program's behalf and sync.Pool drops a share of Puts under it")
	}
	const budget = 74_600 // 62.2k measured, plus 20 %
	var catalog []*video.Video
	for _, name := range []string{"Soccer1", "Tank", "Mountain", "Lava"} {
		v, err := video.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		catalog = append(catalog, v)
	}
	measure := func() float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep, err := Run(context.Background(), Config{
			Sessions:   32,
			Workers:    2,
			Videos:     catalog,
			Traces:     flatTraces(map[string]float64{"med": 4e6, "slow": 1.5e6}),
			TimeScales: []float64{1},
			Profile:    func(v *video.Video) ([]float64, error) { return v.TrueSensitivity(), nil },
			Chaos:      chaosFleetSpec(),
			Events:     &EventsSpec{},
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed != 0 || !rep.Reconciliation.Ok || rep.Events.Drops != 0 {
			t.Fatalf("fleet did not reconcile without drops:\n%s", rep.Render())
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(rep.Sessions)
	}
	measure() // warm the pools and every lazily built table
	got := measure()
	t.Logf("%.0f bytes allocated per session (budget %v)", got, budget)
	if got > budget {
		t.Fatalf("%.0f bytes allocated per session exceeds the budget of %v", got, budget)
	}
}
