package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"sensei/internal/chaos"
	"sensei/internal/dash"
	"sensei/internal/origin"
	"sensei/internal/video"
	"sensei/internal/wire"
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
	return func(b backend) (func(*dash.Client), func()) {
		h, ok := b.(http.Handler)
		if !ok {
			t.Fatalf("%T is not an http.Handler", b)
		}
		srv := origin.NewHTTPServer("fleet-reference", h, cfg.Logf, func() {})
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		tr := &http.Transport{
			MaxIdleConns:        cfg.Sessions + 4,
			MaxIdleConnsPerHost: cfg.Sessions + 4,
			DisableKeepAlives:   cfg.Chaos != nil,
		}
		hc := &http.Client{Transport: tr}
		return func(c *dash.Client) { c.BaseURL, c.HTTP = "http://"+addr, hc }, func() {
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
// with each request a typed Call into the origin and served over loopback
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

// labelProbe is the clients' Caller in front of the backend: it counts
// each call's "subsystem" profiler label, taken from the call's context,
// and once, from inside a session's second segment request, writes the
// process's goroutine profile with its labels (the refresh watcher has
// parked on the clock by then, so it is running under its label).
type labelProbe struct {
	wire.Caller
	mu      sync.Mutex
	labels  map[string]int
	profile string
}

func (p *labelProbe) Call(ctx context.Context, c *wire.Call, a *wire.Answer) error {
	v, _ := pprof.Label(ctx, "subsystem")
	p.mu.Lock()
	p.labels[v]++
	if p.profile == "" && c.Route == wire.RouteSegment && c.Chunk == 1 {
		// The janitor is no clock participant, so nothing so far need have
		// let it start: yield until it has.
		for i := 0; i < 100 && len(goroutineLabels(p.profile, "(*Origin).janitor")) == 0; i++ {
			runtime.Gosched()
			var b strings.Builder
			_ = pprof.Lookup("goroutine").WriteTo(&b, 1)
			p.profile = b.String()
		}
	}
	p.mu.Unlock()
	return p.Caller.Call(ctx, c, a)
}

// goroutineLabels returns the labels line ("" for none) of every record of
// a debug=1 goroutine profile whose stack holds fn.
func goroutineLabels(profile, fn string) []string {
	var out []string
	for _, rec := range strings.Split(profile, "\n\n") {
		if !strings.Contains(rec, fn) {
			continue
		}
		labels := ""
		for _, line := range strings.Split(rec, "\n") {
			if l, ok := strings.CutPrefix(line, "# labels: "); ok {
				labels = l
			}
		}
		out = append(out, labels)
	}
	return out
}

// TestFleetProfileLabels pins the run's profiler labels: every request a
// session makes, its leave included, carries subsystem=fleet-session in
// its context, and the goroutine making it carries that label alone; the
// refresh watcher keeps fleet-refresh and the origin's janitor its
// subsystem and shard. A single worker runs the sessions on Run's own
// goroutine, which must be unlabelled again once Run returns.
func TestFleetProfileLabels(t *testing.T) {
	for _, workers := range []int{0, 1} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := transportParityConfig(t, nil)
			cfg.Workers = workers
			probe := &labelProbe{labels: map[string]int{}}
			via := func(b backend) (func(*dash.Client), func()) {
				probe.Caller = b
				return func(c *dash.Client) { c.Caller = probe }, func() {}
			}
			rep, err := run(context.Background(), cfg, via)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 || !rep.Reconciliation.Ok || !rep.Refresh.Applied {
				t.Fatalf("fleet did not reconcile:\n%s", rep.Render())
			}
			// A join, a manifest, every segment and a leave per session.
			if want := 3*cfg.Sessions + int(rep.SegmentsDownloaded); probe.labels["fleet-session"] < want || len(probe.labels) != 1 {
				t.Fatalf("calls by subsystem label: %v, want only fleet-session, at least %d", probe.labels, want)
			}
			for fn, want := range map[string]string{
				"(*labelProbe).Call": `{"subsystem":"fleet-session"}`,
				"(*Origin).janitor":  `{"shard":"0", "subsystem":"origin-janitor"}`,
			} {
				got := goroutineLabels(probe.profile, fn)
				if len(got) == 0 || slices.ContainsFunc(got, func(l string) bool { return l != want }) {
					t.Errorf("goroutines in %s carry labels %q, want %s", fn, got, want)
				}
			}
			if !strings.Contains(probe.profile, `# labels: {"subsystem":"fleet-refresh"}`) {
				t.Error("no goroutine carries the refresh watcher's label")
			}
			var b strings.Builder
			_ = pprof.Lookup("goroutine").WriteTo(&b, 1)
			if got := goroutineLabels(b.String(), "TestFleetProfileLabels.func"); len(got) != 1 || got[0] != "" {
				t.Errorf("the test's goroutine carries labels %q after Run", got)
			}
		})
	}
}

// TestFleetSegmentAllocBudget pins what one downloaded segment costs the
// allocator on the product path: a fixed fault-free fleet on virtual time
// (the benchmark's fleet_vclock shape), heap objects allocated by the whole
// process during Run over segments downloaded. A count, not a time — it
// repeats to within a fraction of an object on any machine, so CI can gate
// on it. Measured: 0.67 with one profiler label set and one leave context
// per run instead of per session, and each client's request and reply
// buffers taken from a pool; 0.87 with a session's join, manifest and leave
// allocating only what the session keeps (no log arguments boxed for an
// unset logger, the manifest decoded into rungs sized once, its weights
// split in place, names shared, the session ID encoded on the stack); 1.36
// with the bodies sharing the strings their reader
// holds, weight arrays sized once and no ServeMux built for the fleet; 1.67
// with each request, and the run's /stats read, a
// typed Call into the origin's core (1.70 while /stats still went through
// an http.Client into a response recorder), with no URL, request, context
// or response (17.8 through the origin as the client's
// http.RoundTripper, 20.0 before that,
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
	const budget = 0.82 // 0.67 to 0.68 measured, plus 20 %
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
	t.Logf("%.2f allocations per downloaded segment (budget %v)", got, budget)
	if got > budget {
		t.Fatalf("%.1f allocations per downloaded segment exceeds the budget of %v", got, budget)
	}
}
