// Command fleetsim drives a concurrent streaming fleet against one
// multi-tenant DASH origin and prints the aggregate report: QoE, rebuffer
// and throughput percentiles, per-ABR and per-trace cohorts, and an exact
// reconciliation of the fleet's client-side byte/segment ledgers against
// the origin's /stats. It exits non-zero when any session fails or the
// ledgers disagree, so it doubles as a CI smoke for the client/simulator
// parity contract under production-scale concurrency.
//
// Usage:
//
//	fleetsim [-sessions 64] [-videos Soccer1,Tank,Mountain,Lava] [-excerpt 8]
//	         [-abrs ratebased,bola,mpc,sensei-mpc] [-traces fast=32,slow=4]
//	         [-timescales 0.05] [-workers 0] [-timeout 0]
//	         [-refresh 0] [-shards 1] [-closedloop] [-chaos]
//	         [-chaos-rate 0.08] [-chaos-seed N] [-noweights] [-json]
//	         [-outcomes] [-events] [-events-dump slot] [-pprof addr] [-v]
//
// -shards N > 1 runs the fleet against a consistent-hash router fronting N
// origin shards instead of a single origin: sessions spread across shards
// by session-ID hash, and reconciliation additionally proves the merged
// /stats equals the sum of the per-shard ledgers with no shard leaking a
// session — the scale-out smoke. Incompatible with -closedloop (the ingest
// autopilot is not shard-aware). -pprof serves net/http/pprof on a side
// listener for profiling the harness under load.
//
// The fleet runs on a discrete-event virtual clock: every throttle,
// backoff and buffer wait jumps straight to its deadline the moment all
// sessions are asleep, so sessions/sec is bounded by CPU rather than by
// stream time. The report's clock: line gives simulated seconds against
// wall seconds.
//
// -traces lists flat traces as name=Mbps pairs; -timescales is the
// session timescale mix (1 = real-time pacing; it scales simulated time
// only). Sessions walk the full video×trace×abr×timescale cross product
// with a coprime stride, so every combination is covered and cohorts are
// never confounded with each other.
// -workers bounds concurrently running sessions (0 = whole fleet at once).
// -timeout bounds the whole run (0 = none). -refresh schedules a mid-run
// catalog-wide sensitivity refresh (live-plane scenario): the report gains
// per-epoch QoE cohorts and reconciliation fails unless every session
// still streaming converged on the new epoch. -closedloop runs the
// feedback-ingestion scenario instead: every session carries a mos-backed
// rater persona posting one score per rendered chunk, the origin's
// autopilot turns the evidence into autonomous epoch bumps (no operator
// refresh), and the report gains an ingest ledger reconciled exactly
// against /stats. -chaos mounts seeded fault injection on every origin
// endpoint (5xx, connection resets, stalls, truncated segment bodies) and
// turns every client resilient; the report gains a two-sided fault ledger
// and the run fails unless every session survives and the ledgers
// reconcile per endpoint kind — the whole fault schedule replays from
// -chaos-seed. -events runs the fleet with per-session qlog trace rings:
// the report gains an event-plane ledger and reconciliation additionally
// cross-checks every session's event tallies against its own ledgers and
// the origin's /stats — a third independently produced account of the run,
// voided by any ring drop. -events-dump N prints fleet slot N's full
// ordered trace as JSON lines on stderr after the report (implies -events).
// -json emits the report as JSON (with per-session rows under -outcomes)
// instead of text.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strconv"
	"strings"

	"sensei"
	"sensei/internal/fleet"
	"sensei/internal/trace"
)

func main() {
	sessions := flag.Int("sessions", 64, "fleet size")
	videos := flag.String("videos", "Soccer1,Tank,Mountain,Lava", "comma-separated catalog video names")
	excerpt := flag.Int("excerpt", 8, "stream only the first N chunks of each video (0 = full)")
	abrs := flag.String("abrs", "ratebased,bola,mpc,sensei-mpc", "comma-separated ABR mix")
	traces := flag.String("traces", "fast=32,slow=4", "comma-separated name=Mbps flat traces")
	timescales := flag.String("timescales", "0.05", "comma-separated session timescale mix (1 = real-time pacing, in simulated time)")
	workers := flag.Int("workers", 0, "max concurrently running sessions (0 = all)")
	timeout := flag.Duration("timeout", 0, "bound the whole run (0 = none)")
	refresh := flag.Duration("refresh", 0, "publish a catalog-wide weight refresh this long after every session joined (0 = none); the run fails unless every session converges on the new epoch")
	shards := flag.Int("shards", 1, "run against N origin shards behind a consistent-hash router (1 = single origin); reconciliation then also proves the merged /stats equals the shard-ledger sums")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this side address (\"\" = off)")
	closedLoop := flag.Bool("closedloop", false, "attach rater cohorts and enable the origin's ingest autopilot (autonomous epoch bumps from live ratings)")
	chaosOn := flag.Bool("chaos", false, "mount seeded fault injection on the origin and run resilient clients; the run fails unless every session survives and the fault ledgers reconcile per endpoint kind")
	chaosRate := flag.Float64("chaos-rate", fleet.DefaultChaosRate, "uniform per-request fault probability per endpoint kind (with -chaos)")
	chaosSeed := flag.Uint64("chaos-seed", fleet.DefaultChaosSeed, "fault-policy seed; the whole fault schedule replays from it (with -chaos)")
	noWeights := flag.Bool("noweights", false, "serve weightless manifests (skip sensitivity profiling)")
	eventsOn := flag.Bool("events", false, "trace every session into a qlog event ring; the report gains an event-plane ledger and reconciliation cross-checks event tallies against the session and origin ledgers")
	eventsDump := flag.Int("events-dump", -1, "print fleet slot N's full ordered event trace as JSON lines on stderr after the report (implies -events; -1 = off)")
	jsonOut := flag.Bool("json", false, "emit the report as JSON")
	outcomes := flag.Bool("outcomes", false, "include per-session rows in the JSON report")
	verbose := flag.Bool("v", false, "log origin activity to stderr")
	flag.Parse()

	cfg := fleet.Config{
		Sessions:     *sessions,
		OriginShards: *shards,
		KeepOutcomes: *outcomes,
		Workers:      *workers,
	}

	if *pprofAddr != "" {
		go func() {
			// The default mux carries the pprof handlers via the blank import.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "fleetsim: pprof:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof at http://%s/debug/pprof/\n", *pprofAddr)
	}

	for _, name := range splitList(*videos) {
		v, err := sensei.VideoByName(name)
		if err != nil {
			fail(err)
		}
		if *excerpt > 0 && *excerpt < v.NumChunks() {
			if v, err = v.Excerpt(0, *excerpt); err != nil {
				fail(err)
			}
		}
		cfg.Videos = append(cfg.Videos, v)
	}

	cfg.Traces = map[string]*trace.Trace{}
	for _, spec := range splitList(*traces) {
		name, mbpsStr, ok := strings.Cut(spec, "=")
		if !ok {
			fail(fmt.Errorf("bad trace spec %q (want name=Mbps)", spec))
		}
		mbps, err := strconv.ParseFloat(mbpsStr, 64)
		if err != nil || mbps <= 0 {
			fail(fmt.Errorf("bad trace rate %q in %q", mbpsStr, spec))
		}
		cfg.Traces[name] = &trace.Trace{Name: name, BitsPerSecond: []float64{mbps * 1e6}}
	}

	for _, a := range splitList(*abrs) {
		cfg.ABRs = append(cfg.ABRs, fleet.ABR(a))
	}
	for _, s := range splitList(*timescales) {
		ts, err := strconv.ParseFloat(s, 64)
		if err != nil {
			fail(fmt.Errorf("bad timescale %q", s))
		}
		cfg.TimeScales = append(cfg.TimeScales, ts)
	}

	if !*noWeights {
		cfg.Profile = func(v *sensei.Video) ([]float64, error) { return v.TrueSensitivity(), nil }
	}
	if *refresh > 0 {
		// The refreshed belief: true sensitivity reversed — valid weights,
		// maximally different plans for sensitivity-aware ABRs.
		cfg.Refresh = &fleet.RefreshSpec{
			After:   *refresh,
			Weights: fleet.ReversedSensitivity,
		}
	}
	if *closedLoop {
		if *noWeights {
			fail(fmt.Errorf("-closedloop needs profiled weights (drop -noweights)"))
		}
		cfg.Raters = &fleet.RaterSpec{}
	}
	if *chaosOn {
		cfg.Chaos = &fleet.ChaosSpec{Seed: *chaosSeed, Rate: *chaosRate}
	}
	if *eventsOn || *eventsDump >= 0 {
		// A trace dump needs the full per-session event lists kept (and the
		// outcome rows they ride on); a bare -events keeps only tallies.
		cfg.Events = &fleet.EventsSpec{KeepTraces: *eventsDump >= 0}
		if *eventsDump >= 0 {
			cfg.KeepOutcomes = true
		}
	}
	if *verbose {
		cfg.Logf = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	report, err := fleet.Run(ctx, cfg)
	if err != nil {
		fail(err)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fail(err)
		}
	} else {
		fmt.Println(report.Render())
	}
	if *eventsDump >= 0 {
		dumpTrace(report, *eventsDump)
	}
	if report.Failed > 0 || !report.Reconciliation.Ok {
		os.Exit(1)
	}
}

// dumpTrace prints one fleet slot's ordered event trace as JSON lines.
func dumpTrace(report *fleet.Report, slot int) {
	for i := range report.Outcomes {
		o := &report.Outcomes[i]
		if o.Index != slot {
			continue
		}
		if o.Events == nil || len(o.Events.Trace) == 0 {
			fmt.Fprintf(os.Stderr, "fleetsim: slot %d kept no trace\n", slot)
			return
		}
		var buf []byte
		for _, ev := range o.Events.Trace {
			buf = append(ev.AppendJSON(buf[:0]), '\n')
			os.Stderr.Write(buf)
		}
		return
	}
	fmt.Fprintf(os.Stderr, "fleetsim: no slot %d in a fleet of %d sessions\n", slot, report.Sessions)
}

// splitList splits a comma-separated flag, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "fleetsim:", err)
	os.Exit(1)
}
