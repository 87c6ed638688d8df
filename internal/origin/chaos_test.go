package origin

import (
	"context"
	"fmt"
	"net/http"
	"testing"
	"time"

	"sensei/internal/chaos"
	"sensei/internal/dash"
	"sensei/internal/par"
	"sensei/internal/player"
	"sensei/internal/video"
	"sensei/internal/wire"
)

// rung0 always picks the bottom rung — the cheapest deterministic ABR for
// wire-protocol tests.
type rung0 struct{}

func (rung0) Name() string                         { return "rung0" }
func (rung0) Decide(*player.State) player.Decision { return player.Decision{Rung: 0} }

// TestOriginChaosEndToEnd runs one resilient client against a
// fault-injecting origin and proves the two-sided contract in miniature:
// the session completes, every injected fault is observed (and only
// observed) by the client, bytes reconcile exactly including truncated
// partials, and the journal replays from the seed.
func TestOriginChaosEndToEnd(t *testing.T) {
	v := excerptOf(t, "Soccer1", 6)
	policy := chaos.Uniform(0xe2e, 0.25)
	policy.StallDelay = 5 * time.Millisecond
	o, base := startOrigin(t, Config{
		Catalog:      []*video.Video{v},
		Profile:      trueSensitivityProfile,
		Traces:       flatTraces(map[string]float64{"f": 1e8}),
		DefaultTrace: "f",
		TimeScale:    testScale(),
		Chaos:        &policy,
	})

	// Fresh connections per request: on a reused connection net/http
	// transparently retries replayable requests the server closed early,
	// which would hide reset/stall faults from the client's ledger.
	httpc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	defer httpc.CloseIdleConnections()
	c := &dash.Client{
		BaseURL:   base,
		Algorithm: rung0{},
		HTTP:      httpc,
		Retry:     par.Backoff{Base: 2 * time.Millisecond, Max: 10 * time.Millisecond},
		ChaosKey:  "e2e-0001",
	}
	sess, err := c.Stream(context.Background(), v)
	if err != nil {
		t.Fatalf("stream did not survive chaos: %v", err)
	}
	if err := c.Leave(context.Background()); err != nil {
		t.Fatalf("leave did not survive chaos: %v", err)
	}
	res := c.Resilience()

	st := o.Stats()
	if st.Chaos == nil {
		t.Fatal("stats carry no chaos ledger")
	}
	if st.Chaos.Total == 0 {
		t.Fatalf("no faults injected at rate 0.25 across a whole session (seed needs changing); ledger %+v", st.Chaos)
	}
	// Per-kind equality: every injected fault observed by exactly one
	// client request, and nothing the origin didn't inject.
	for _, kind := range chaos.Kinds() {
		if got, want := res.FaultsByKind[string(kind)], st.Chaos.ByKind[string(kind)]; got != want {
			t.Errorf("%s faults: client survived %d, origin injected %d", kind, got, want)
		}
	}
	// Exact byte reconciliation, truncated partials included.
	if st.BytesServed != sess.BytesDownloaded {
		t.Errorf("origin served %d bytes, client counted %d", st.BytesServed, sess.BytesDownloaded)
	}
	if st.SegmentsServed != int64(v.NumChunks()) {
		t.Errorf("origin counted %d complete segments for %d chunks", st.SegmentsServed, v.NumChunks())
	}
	// With the fault ceiling (2) below the retry budget (default 4), no
	// degradation rung should ever be needed.
	if res.Degradations() != 0 {
		t.Errorf("ceiling < budget yet the session degraded: %+v", res)
	}

	// Every journaled fault must replay from the seed alone.
	journal := o.ChaosJournal()
	if int64(len(journal)) != st.Chaos.Total {
		t.Fatalf("journal has %d events, ledger says %d", len(journal), st.Chaos.Total)
	}
	maxSeq := map[chaos.Kind]uint64{}
	for _, e := range journal {
		if e.Key != "e2e-0001" {
			t.Fatalf("journal event keyed %q, want the client's chaos key", e.Key)
		}
		if e.Seq+1 > maxSeq[e.Kind] {
			maxSeq[e.Kind] = e.Seq + 1
		}
	}
	for kind, n := range maxSeq {
		modes := policy.Replay("e2e-0001", kind, n)
		for _, e := range journal {
			if e.Kind == kind && modes[e.Seq] != e.Mode {
				t.Fatalf("event %+v not reproduced by Replay (got %q)", e, modes[e.Seq])
			}
		}
	}
}

// TestOriginChaosSparesControlRoutes: /stats (and /refresh) stay reachable
// under an aggressive fault policy — reconciliation and operator controls
// must outlive any data-plane weather.
func TestOriginChaosSparesControlRoutes(t *testing.T) {
	v := excerptOf(t, "Tank", 4)
	policy := chaos.Uniform(1, 0.9)
	policy.MaxConsecutive = 1 << 20 // no ceiling: every draw may fault
	_, base := startOrigin(t, Config{
		Catalog:      []*video.Video{v},
		Traces:       flatTraces(map[string]float64{"f": 1e9}),
		DefaultTrace: "f",
		TimeScale:    testScale(),
		Chaos:        &policy,
	})
	for i := 0; i < 10; i++ {
		resp, _ := get(t, base+"/stats")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/stats request %d answered %d under chaos", i, resp.StatusCode)
		}
	}
}

// TestInjectedErrorsShareOneBody: every injected 503 replies with the one
// package-level body, not a fresh copy of it. The adapters only read a
// reply's body (Call copies it into the caller's Answer), so sharing it is
// safe and a faulted request allocates nothing for its text.
func TestInjectedErrorsShareOneBody(t *testing.T) {
	p := chaos.Policy{
		Seed:           5,
		Endpoints:      map[chaos.Kind]chaos.Spec{chaos.KindSegment: {Rate: 0.99, Modes: []chaos.Mode{chaos.ModeError}}},
		MaxConsecutive: 1000,
	}
	o := adapterOrigin(t, &p)
	var bodies [][]byte
	for i := 0; len(bodies) < 2 && i < 20; i++ {
		key := fmt.Sprintf("k%d", i)
		if p.Replay(key, chaos.KindSegment, 1)[0] != chaos.ModeError {
			continue
		}
		c := wire.Call{Route: wire.RouteSegment, SID: routingSID, Video: o.cfg.Catalog[0].Name, Key: key}
		rp := o.answer(&request{Call: c, buf: new(bodyBuf)})
		if rp.status != http.StatusServiceUnavailable || rp.fault != chaos.ModeError || string(rp.body) != "chaos: injected fault\n" {
			t.Fatalf("key %s: status %d, fault %q, body %q; want an injected 503", key, rp.status, rp.fault, rp.body)
		}
		bodies = append(bodies, rp.body)
	}
	if len(bodies) != 2 {
		t.Fatalf("%d injected errors in 20 keys at rate 0.99", len(bodies))
	}
	if &bodies[0][0] != &bodies[1][0] {
		t.Fatal("two injected 503s carry separate body arrays; want one shared body")
	}
}
