package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"sensei/internal/chaos"
	"sensei/internal/origin"
	"sensei/internal/video"
)

// overTCP is the reference request plane: the handler behind a real
// http.Server on a loopback listener, reached through an http.Transport —
// the path Run used before it moved in-process, kept here, and only here,
// so the transport-equivalence proof has something to compare against. The
// transport is sized to the concurrency (http.DefaultTransport keeps only
// two idle connections per host), and under chaos connection reuse must go:
// net/http transparently retries replayable GETs on a reused connection
// the server closed early, which would hide reset and stall faults from
// the client-side ledger.
func overTCP(t testing.TB, cfg Config) reach {
	return func(b backend) (string, http.RoundTripper, func()) {
		srv := origin.NewHTTPServer("fleet-reference", b, cfg.Logf, func() {})
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		tr := &http.Transport{
			MaxIdleConns:        cfg.Sessions + 4,
			MaxIdleConnsPerHost: cfg.Sessions + 4,
			DisableKeepAlives:   cfg.Chaos != nil,
		}
		return "http://" + addr, tr, func() {
			tr.CloseIdleConnections()
			_ = srv.Close()
		}
	}
}

// transportParityConfig is one arm of the equivalence proof: a mixed fleet
// on virtual time with a mid-run refresh to reversed weights (so chunk
// epochs flip mid-stream and move SENSEI's plans) and the event plane
// keeping every session's full trace, which carries the per-chunk decision
// epochs and the per-stall durations the outcome rows only total.
func transportParityConfig(t testing.TB, spec *ChaosSpec) Config {
	return Config{
		Sessions: 32,
		Videos:   testCatalog(t, 8),
		Traces: flatTraces(map[string]float64{
			"med":  4e6,
			"slow": 1.5e6,
		}),
		TimeScales:   []float64{1},
		Profile:      func(v *video.Video) ([]float64, error) { return v.TrueSensitivity(), nil },
		Refresh:      &RefreshSpec{After: 6 * time.Second, Weights: ReversedSensitivity},
		Chaos:        spec,
		Events:       &EventsSpec{KeepTraces: true},
		KeepOutcomes: true,
	}
}

// stripWall zeroes what a report measures on the wall clock (run elapsed
// and the figures derived from it, per-event wire latencies) and the one
// thing the origin draws at random (session IDs), and puts the journal —
// appended in goroutine arrival order — into stream order. Everything left
// is a function of the workload on virtual time.
func stripWall(r *Report) {
	r.ElapsedSec, r.SessionsPerSec, r.Speedup = 0, 0, 0
	for i := range r.Outcomes {
		o := &r.Outcomes[i]
		o.SessionID = ""
		for j := range o.Events.Trace {
			o.Events.Trace[j].Wire = 0
		}
	}
	if r.Chaos != nil {
		ev := r.Chaos.Events
		sort.Slice(ev, func(i, j int) bool {
			a, b := ev[i], ev[j]
			if a.Key != b.Key {
				return a.Key < b.Key
			}
			if a.Kind != b.Kind {
				return a.Kind < b.Kind
			}
			return a.Seq < b.Seq
		})
	}
}

// TestFleetTransportParity proves the fleet's transport changes only what
// a fleet run costs, never what it does: on virtual time the same fleet
// with the origin reached through its RoundTrip and served over loopback
// TCP behind net/http (its ServeHTTP) must produce the same report —
// every session's rungs, bytes, stall and download ledgers, epochs,
// resilience counters and event trace (virtual timestamps included), the
// chaos journal, the refresh outcome and the origin's aggregate /stats.
func TestFleetTransportParity(t *testing.T) {
	arms := map[string]func() *ChaosSpec{
		"fault-free": func() *ChaosSpec { return nil }, // keep-alive connections
		"chaos": func() *ChaosSpec { // a connection per request, every fault mode
			spec := chaosFleetSpec()
			delete(spec.Endpoints, chaos.KindRating) // no raters in this fleet
			return spec
		},
	}
	for name, spec := range arms {
		t.Run(name, func(t *testing.T) {
			runOver := func(transport string) *Report {
				cfg := transportParityConfig(t, spec())
				via := reach(inProcess)
				if transport == "tcp" {
					via = overTCP(t, cfg)
				}
				rep, err := run(context.Background(), cfg, via)
				if err != nil {
					t.Fatalf("%s run: %v", transport, err)
				}
				if rep.Failed != 0 || !rep.Reconciliation.Ok {
					t.Fatalf("%s run did not reconcile:\n%s", transport, rep.Render())
				}
				if rep.Refresh == nil || !rep.Refresh.Applied || rep.Refresh.SessionsConverged == 0 {
					t.Fatalf("%s run: the refresh reached nobody: %+v", transport, rep.Refresh)
				}
				stripWall(rep)
				return rep
			}
			inp, tcp := runOver("in-process"), runOver("tcp")
			if spec() != nil && len(inp.Chaos.Events) == 0 {
				t.Fatal("chaos arm injected no faults")
			}
			if !reflect.DeepEqual(inp, tcp) {
				t.Errorf("in-process and TCP reports diverged:\n%s", reportDiff(t, inp, tcp))
			}
		})
	}
}

// reportDiff renders where two reports differ: the first few differing
// lines of their indented JSON, each under the session row it belongs to.
func reportDiff(t *testing.T, a, b *Report) string {
	t.Helper()
	lines := func(r *Report) []string {
		js, err := json.MarshalIndent(r, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		return strings.Split(string(js), "\n")
	}
	la, lb := lines(a), lines(b)
	var out strings.Builder
	session, shown := "", 0
	for i := 0; i < len(la) && i < len(lb) && shown < 8; i++ {
		if strings.Contains(la[i], `"index":`) {
			session = strings.TrimSpace(la[i])
		}
		if la[i] != lb[i] {
			fmt.Fprintf(&out, "  line %d (%s)\n    in-process: %s\n    tcp:        %s\n",
				i, session, strings.TrimSpace(la[i]), strings.TrimSpace(lb[i]))
			shown++
		}
	}
	if len(la) != len(lb) {
		fmt.Fprintf(&out, "  %d lines of JSON against %d\n", len(la), len(lb))
	}
	return out.String()
}

// TestFleetRunLeavesNoGoroutines pins Run's teardown: the backend's own
// goroutines (janitor, ingest workers) must end with Run, and a request
// starts none.
func TestFleetRunLeavesNoGoroutines(t *testing.T) {
	for name, spec := range map[string]*ChaosSpec{"fault-free": nil, "chaos": chaosFleetSpec()} {
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			cfg := transportParityConfig(t, spec)
			rep, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 || !rep.Reconciliation.Ok {
				t.Fatalf("fleet did not reconcile:\n%s", rep.Render())
			}
			// Exiting goroutines leave the count on their own schedule.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines before Run, %d after:\n%s",
						before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// TestFleetSegmentAllocBudget pins what one downloaded segment costs the
// allocator on the product path: a fixed fault-free fleet on virtual time
// (the benchmark's fleet_vclock shape), heap objects allocated by the whole
// process during Run over segments downloaded. A count, not a time — it
// repeats to within a fraction of an object on any machine, so CI can gate
// on it. Measured: 17.8 with the origin reached through its RoundTrip,
// answered by the typed core on the session's goroutine (20.0 before,
// over a coroutine transport running the handler behind ServeMux and the
// chaos middleware); 20.1 with the client's fetch record returned by value,
// self-woken virtual sleeps that never touch their context, each session's
// throughput history sized up front and the origin's per-run catalog, the
// manifest's weight attribute built as slabs (23.8
// before; 23.6 with manifests parsed without encoding/xml, 28.0 before;
// 29.4 with parked handler coroutines reused, committed
// headers handed over, segment URLs built from per-session parts and
// segment GETs routed without the mux; 52.3 with the client driving one
// player.Playback; 53.6 while its loop built a State and regrew two
// histories per chunk; 102.8 before the origin's handler was called
// in-process); the bound leaves about 20 % for toolchain drift.
func TestFleetSegmentAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the program's behalf and sync.Pool drops a share of Puts under it")
	}
	const budget = 21.4 // 17.8 measured, plus 20 %
	var catalog []*video.Video
	for _, name := range []string{"Soccer1", "Tank", "Mountain", "Lava"} {
		v, err := video.ByName(name) // full length: per-session set-up is not what is pinned
		if err != nil {
			t.Fatal(err)
		}
		catalog = append(catalog, v)
	}
	cfg := func() Config {
		return Config{
			Sessions:   24,
			Workers:    2,
			Videos:     catalog,
			Traces:     flatTraces(map[string]float64{"med": 4e6, "slow": 1.5e6}),
			TimeScales: []float64{1},
			Profile:    func(v *video.Video) ([]float64, error) { return v.TrueSensitivity(), nil },
		}
	}
	measure := func() float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep, err := Run(context.Background(), cfg())
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed != 0 || !rep.Reconciliation.Ok {
			t.Fatalf("fleet did not reconcile:\n%s", rep.Render())
		}
		return float64(after.Mallocs-before.Mallocs) / float64(rep.SegmentsDownloaded)
	}
	measure() // warm the pools and every lazily built table
	got := measure()
	t.Logf("%.1f allocations per downloaded segment (budget %v)", got, budget)
	if got > budget {
		t.Fatalf("%.1f allocations per downloaded segment exceeds the budget of %v", got, budget)
	}
}
