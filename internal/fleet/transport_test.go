package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"sensei/internal/chaos"
	"sensei/internal/vclock"
	"sensei/internal/video"
)

// listenTCP is the reference connection plane: the loopback TCP path Run
// used before it moved onto memnet, kept here — and only here — so the
// transport-equivalence proof has something to compare against. A nil dial
// selects net/http's own dialer.
func listenTCP() (net.Listener, dial, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	return ln, nil, err
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
		Clock:        vclock.NewVirtual(),
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

// TestFleetTransportParity proves the in-memory connection plane changes
// only what a fleet run costs, never what it does: on virtual time the same
// fleet over memnet and over loopback TCP must produce the same report —
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
			runOver := func(transport string, listen func() (net.Listener, dial, error)) *Report {
				rep, err := run(context.Background(), transportParityConfig(t, spec()), listen)
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
			mem, tcp := runOver("memory", listenMem), runOver("tcp", listenTCP)
			if spec() != nil && len(mem.Chaos.Events) == 0 {
				t.Fatal("chaos arm injected no faults")
			}
			if !reflect.DeepEqual(mem, tcp) {
				t.Errorf("memory and TCP reports diverged:\n%s", reportDiff(t, mem, tcp))
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
			fmt.Fprintf(&out, "  line %d (%s)\n    memory: %s\n    tcp:    %s\n",
				i, session, strings.TrimSpace(la[i]), strings.TrimSpace(lb[i]))
			shown++
		}
	}
	if len(la) != len(lb) {
		fmt.Fprintf(&out, "  %d lines of JSON against %d\n", len(la), len(lb))
	}
	return out.String()
}

// TestFleetRunLeavesNoGoroutines pins Run's teardown: with no kernel to
// reap a forgotten pipe, every connection goroutine — both net/http sides —
// must be gone once the server has shut down and the transport dropped its
// idle connections.
func TestFleetRunLeavesNoGoroutines(t *testing.T) {
	for name, spec := range map[string]*ChaosSpec{"fault-free": nil, "chaos": parityChaos()} {
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
			// Connection goroutines exit on their own schedule after Close.
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
