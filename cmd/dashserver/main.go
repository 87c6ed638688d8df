// Command dashserver runs the multi-tenant DASH origin (§6 scaled up):
// one process serves the whole catalog with SENSEI-extended manifests,
// per-session trace-shaped egress and a session control plane. Pair it
// with one or more dashclient instances.
//
// Sensitivity weights are profiled lazily — at most once per video, on the
// first manifest request — and persisted under -weightdir so a restarted
// origin starts instantly; cmd/weightlib fills the same directory offline,
// so an origin booted on it runs no campaign at all. They are a live, versioned plane: every profile
// carries an epoch (persisted, survives restarts), segment responses
// advertise the current epoch via X-Sensei-Weight-Epoch, clients re-fetch
// GET /weights?sid=... when it advances, and POST /refresh re-profiles a
// chunk window and publishes the result as the next epoch — active
// sessions pick it up within one segment, mid-stream:
//
//	curl -X POST localhost:8428/refresh -d '{"video":"Soccer1","from":10,"to":16}'
//
// With -autopilot the loop closes without the operator: clients post
// per-chunk ratings to POST /rating (session id, chunk, weight epoch, 1–5
// score), a sharded aggregator accumulates the evidence per chunk window,
// and once a confidence gate passes (-ap-samples ratings in a window,
// -ap-interval since the video's last refresh, implied weight change past
// -ap-delta) the origin re-profiles that window and publishes the next
// epoch on its own. Stale-epoch ratings are counted but quarantined.
//
// Usage:
//
//	dashserver [-addr 127.0.0.1:8428] [-shards 1] [-videos all|Name1,Name2]
//	           [-excerpt N] [-timescale 0.01] [-profile] [-pop 20000]
//	           [-weightdir weights] [-idle 2m] [-autopilot] [-ap-window 4]
//	           [-ap-samples 32] [-ap-interval 30s] [-ap-delta 0.25]
//	           [-chaos-rate 0] [-chaos-seed N] [-chaos-max-consecutive 2]
//	           [-events] [-pprof addr]
//
// -shards N > 1 fronts N origin shards behind the one listener with a
// consistent-hash router: sessions are sticky (every request of a session
// lands on the shard that owns its ID), the sensitivity plane is shared
// (POST /refresh bumps every shard's epoch at once), and GET /stats merges
// the per-shard ledgers exactly, reporting them under "shards". The client
// protocol is unchanged. -autopilot requires a single origin (the feedback
// autopilot is not shard-aware).
//
// -pprof serves net/http/pprof on a side listener for live profiling of
// the serving hot path.
//
// -events turns on the qlog-style session event plane: every session owns
// a bounded lock-free trace ring (drop-on-full with exact accounting —
// observability never blocks the hot path), GET /events?sid=...&since=...
// drains a session's typed events incrementally as JSON lines (no sid
// drains the origin's process-level ring; under -shards the router fans
// the drain out across every shard), and GET /metrics exposes the
// aggregate registry in Prometheus text — served lock-free from padded
// atomics, shared across all shards.
//
// -chaos-rate > 0 mounts seeded, replayable fault injection in front of the
// data and control planes (never /stats or /refresh): 5xx errors,
// connection resets, response stalls and truncated segment bodies, capped
// at -chaos-max-consecutive faults in a row per (session, endpoint) stream.
// Resilient clients (dashclient, the fleet harness) absorb the weather with
// bounded retry budgets; /stats gains an injector ledger to reconcile
// against.
//
// Endpoints: POST /session, GET /v/<video>/manifest.mpd,
// GET /v/<video>/segment/<chunk>/<rung>?sid=..., GET /weights?sid=...,
// POST /refresh, POST /rating (with -autopilot), DELETE /session/<id>,
// GET /stats.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"time"

	"sensei"
)

// offeredTraces builds the named trace menu sessions choose from: the
// 10-trace §7 evaluation set plus two easy-to-type defaults.
func offeredTraces() (map[string]*sensei.Trace, string) {
	traces := map[string]*sensei.Trace{}
	for _, tr := range sensei.EvaluationTraces() {
		traces[tr.Name] = tr
	}
	traces["fcc-2.5"] = sensei.GenerateTrace(sensei.TraceSpec{
		Name: "fcc-2.5", Kind: sensei.TraceFCC, MeanBps: 2.5e6, Seconds: 1800, Seed: 0xd1,
	})
	traces["hsdpa-1.2"] = sensei.GenerateTrace(sensei.TraceSpec{
		Name: "hsdpa-1.2", Kind: sensei.TraceHSDPA, MeanBps: 1.2e6, Seconds: 1800, Seed: 0xd2,
	})
	return traces, "fcc-2.5"
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8428", "listen address")
	shards := flag.Int("shards", 1, "front N origin shards behind the listener with consistent-hash sticky sessions (1 = single origin)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this side address (\"\" = off)")
	videos := flag.String("videos", "all", `catalog: "all" or comma-separated Table 1 names`)
	excerpt := flag.Int("excerpt", 0, "serve only the first N chunks of each video (0 = full)")
	timescale := flag.Float64("timescale", 0.01, "default session wall-clock compression (0.01 = 100x faster)")
	profile := flag.Bool("profile", true, "profile videos lazily and embed weights in manifests")
	popSize := flag.Int("pop", 20000, "rater population size for profiling")
	weightDir := flag.String("weightdir", "weights", "directory persisting profiled weights (\"\" = memory only)")
	idle := flag.Duration("idle", 2*time.Minute, "idle session expiry")
	autopilot := flag.Bool("autopilot", false, "close the feedback loop: accept POST /rating and refresh chunk windows autonomously (requires -profile)")
	apWindow := flag.Int("ap-window", 0, "autopilot chunk-window size (0 = default)")
	apSamples := flag.Int("ap-samples", 0, "autopilot min ratings per window before a refresh (0 = default)")
	apInterval := flag.Duration("ap-interval", 0, "autopilot min spacing between refreshes of one video (0 = default)")
	apDelta := flag.Float64("ap-delta", 0, "autopilot hysteresis: min implied weight change (0 = default)")
	chaosRate := flag.Float64("chaos-rate", 0, "fault-inject this fraction of requests per endpoint kind (0 = chaos off): 5xx, connection resets, stalls, truncated segment bodies")
	chaosSeed := flag.Uint64("chaos-seed", 0xc4a05, "fault-policy seed; the same seed replays the same fault schedule")
	chaosStreak := flag.Int("chaos-max-consecutive", 0, "cap on consecutive faults per (session, endpoint) stream (0 = default 2); keep it below client retry budgets")
	eventsOn := flag.Bool("events", false, "enable the session event plane: per-session qlog trace rings, GET /events?sid=... incremental drains and a Prometheus-text GET /metrics")
	flag.Parse()

	var catalog []*sensei.Video
	if *videos == "all" {
		catalog = sensei.VideoCatalog()
	} else {
		for _, name := range strings.Split(*videos, ",") {
			v, err := sensei.VideoByName(strings.TrimSpace(name))
			if err != nil {
				fail(err)
			}
			catalog = append(catalog, v)
		}
	}
	if *excerpt > 0 {
		for i, v := range catalog {
			n := *excerpt
			if n > v.NumChunks() {
				n = v.NumChunks()
			}
			clip, err := v.Excerpt(0, n)
			if err != nil {
				fail(err)
			}
			catalog[i] = clip
		}
	}

	var profileFn sensei.DASHProfileFunc
	if *profile {
		pop, err := sensei.NewPopulation(sensei.PopulationConfig{Size: *popSize, Seed: 0x717})
		if err != nil {
			fail(err)
		}
		profiler := sensei.NewProfiler(pop)
		profileFn = func(v *sensei.Video) ([]float64, error) {
			start := time.Now()
			fmt.Printf("profiling %s (%d chunks)...\n", v.Name, v.NumChunks())
			p, err := profiler.Profile(v)
			if err != nil {
				return nil, err
			}
			fmt.Printf("profiled %s in %.1fs: $%.1f/min, %d participants\n",
				v.Name, time.Since(start).Seconds(), p.CostPerMinuteUSD, p.Participants)
			return p.Weights, nil
		}
	}

	var ingestCfg *sensei.IngestConfig
	if *autopilot {
		if profileFn == nil {
			fail(fmt.Errorf("-autopilot requires -profile (autonomous refreshes re-profile chunk windows)"))
		}
		ingestCfg = &sensei.IngestConfig{
			WindowChunks:   *apWindow,
			MinSamples:     *apSamples,
			MinInterval:    *apInterval,
			MinWeightDelta: *apDelta,
		}
	}

	var chaosCfg *sensei.ChaosConfig
	if *chaosRate > 0 {
		p := sensei.UniformChaos(*chaosSeed, *chaosRate)
		p.MaxConsecutive = *chaosStreak
		chaosCfg = &p
	}

	if *pprofAddr != "" {
		go func() {
			// The default mux carries the pprof handlers via the blank import.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "dashserver: pprof:", err)
			}
		}()
		fmt.Printf("pprof at http://%s/debug/pprof/\n", *pprofAddr)
	}

	traces, defaultTrace := offeredTraces()
	ocfg := sensei.DASHOriginConfig{
		Catalog:            catalog,
		Profile:            profileFn,
		WeightDir:          *weightDir,
		Traces:             traces,
		DefaultTrace:       defaultTrace,
		TimeScale:          *timescale,
		SessionIdleTimeout: *idle,
		Ingest:             ingestCfg,
		Chaos:              chaosCfg,
		Logf:               log.Printf,
	}
	if *eventsOn {
		ocfg.Events = &sensei.DASHEventsConfig{}
	}
	// The serving plane: a single origin, or -shards origins behind a
	// consistent-hash router. Both expose the same endpoints; the branches
	// only differ in construction and where the final stats come from.
	var (
		srv interface {
			Start(addr string) (string, error)
			Close() error
		}
		finalStats func() any
	)
	if *shards > 1 {
		rt, err := sensei.NewDASHRouter(sensei.DASHRouterConfig{Shards: *shards, Origin: ocfg})
		if err != nil {
			fail(err)
		}
		srv = sensei.NewDASHRouterServer(rt)
		finalStats = func() any { return rt.Stats() }
	} else {
		o, err := sensei.NewDASHOrigin(ocfg)
		if err != nil {
			fail(err)
		}
		srv = sensei.NewDASHServer(o)
		finalStats = func() any { return o.Stats() }
	}
	bound, err := srv.Start(*addr)
	if err != nil {
		fail(err)
	}
	fmt.Printf("origin at http://%s serving %d videos (timescale %.3f, default trace %s)\n",
		bound, len(catalog), *timescale, defaultTrace)
	if *shards > 1 {
		fmt.Printf("scale-out: %d origin shards behind a consistent-hash router; sessions are sticky, /stats merges the shard ledgers\n", *shards)
	}
	names := make([]string, 0, len(traces))
	for name := range traces {
		names = append(names, name)
	}
	fmt.Printf("traces on offer: %s\n", strings.Join(names, ", "))
	fmt.Println("join: POST /session {\"video\":..., \"trace\":...}; stats: GET /stats")
	if *profile {
		fmt.Println("live refresh: POST /refresh {\"video\":..., \"from\":..., \"to\":...} re-profiles a chunk window and bumps the weight epoch mid-stream")
	}
	if *autopilot {
		fmt.Println("closed loop: POST /rating {\"session_id\":..., \"chunk\":..., \"epoch\":..., \"rating\":1-5} feeds the autopilot; accumulated evidence refreshes chunk windows autonomously")
	}
	if chaosCfg != nil {
		fmt.Printf("chaos: faulting %.0f%% of requests per endpoint (seed %#x); /stats and /refresh are never faulted\n",
			*chaosRate*100, *chaosSeed)
	}
	if *eventsOn {
		fmt.Println("events: per-session trace rings on; drain GET /events?sid=...&since=..., scrape GET /metrics")
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	<-stop
	fmt.Println("draining sessions...")
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "dashserver: shutdown:", err)
	}
	out, _ := json.MarshalIndent(finalStats(), "", "  ")
	fmt.Printf("final stats:\n%s\n", out)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dashserver:", err)
	os.Exit(1)
}
