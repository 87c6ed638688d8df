package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sort"
	"time"

	"sensei/internal/dash"
	"sensei/internal/fleet"
	"sensei/internal/mos"
	"sensei/internal/origin"
	"sensei/internal/par"
	"sensei/internal/qlog"
	"sensei/internal/stats"
	"sensei/internal/trace"
	"sensei/internal/vclock"
	"sensei/internal/video"
)

// layerCounts are the per-rep counts the layers report about themselves,
// read at the same boundaries the spans are taken.
type layerCounts struct {
	Sessions  int64 // sessions streamed
	Retries   int64 // dash.Client.Resilience().Retries, summed
	Events    int64 // events drained from the clients' qlog rings
	RingDrops int64 // qlog ring drops, client and origin side
	Faults    int64 // faults the origin's chaos injector threw
	Ratings   int64 // ratings the ingest plane accepted or quarantined
	Refreshes int64 // autonomous epoch bumps the autopilot applied
	Refetches int64 // mid-stream /weights re-fetches, summed
}

// tracedFleet is the benchmark-owned fleet driver of the traced pass. It
// composes the same public parts fleet.Run does — origin.New behind its own
// http.Server, one dash.Client per session under par.ForEachN, the same
// session mix, fault keys and retry seeds — with the tracer's wrappers at
// every layer boundary. On the fault-free virtual clock it must move
// exactly the bytes fleet.Run moves.
type tracedFleet struct {
	chaos  bool
	tr     *tracer
	in     *inputs
	videos []*video.Video
	traces map[string]*trace.Trace
	names  []string   // trace names, sorted like fleet.Run sorts them
	seeds  *stats.RNG // per-rep fault and rater seeds, as in fleetLoad
	counts layerCounts
}

func (f *tracedFleet) setup(in *inputs) error {
	f.in = in
	f.traces = in.fleetTraces()
	for name := range f.traces {
		f.names = append(f.names, name)
	}
	sort.Strings(f.names)
	f.seeds = stats.NewRNG(in.chaosSeed)
	var err error
	f.videos, err = in.fleetVideos()
	return err
}

func (f *tracedFleet) drainOps(*hist) {}
func (f *tracedFleet) close() error   { return nil }

// mixSlot is fleet.Config's session-index -> (video, trace, abr) walk: the
// cross product visited with a stride coprime to its size.
func mixSlot(k, nV, nT, nA int) (v, t, a int) {
	m := nV * nT * nA
	stride := 1
	if m > 2 {
		stride = int(float64(m)*0.6180339887) | 1
		for gcd(stride, m) != 1 {
			stride += 2
		}
	}
	idx := (k % m) * stride % m
	return idx % nV, idx / nV % nT, idx / nV / nT % nA
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// sessionResult is one traced session's ledger.
type sessionResult struct {
	segments, bytes  int64
	retries, events  int64
	drops, refetches int64
	err              error
}

func (f *tracedFleet) rep() (repStats, error) {
	t, ctx := f.tr, context.Background()
	boot := t.begin(kBoot, 0, sessRun, 0)
	clock := &tracedClock{Clock: vclock.NewVirtual(), t: t}
	sessions := f.in.size.FleetSessions
	ocfg := origin.Config{
		Clock:        clock,
		Catalog:      f.videos,
		Profile:      trueSensitivity,
		Traces:       f.traces,
		DefaultTrace: f.names[0],
		TimeScale:    1,
	}
	var metrics *qlog.Metrics
	var pop *mos.Population
	var chaosSeed uint64
	if f.chaos {
		sessions = f.in.size.ChaosSessions
		chaosSeed = f.seeds.Uint64() | 1
		policy := (&fleet.ChaosSpec{Seed: chaosSeed}).Policy()
		metrics = &qlog.Metrics{}
		ocfg.Chaos, ocfg.Ingest = &policy, chaosIngest()
		ocfg.Events = &origin.EventsConfig{Metrics: metrics}
		var err error
		if pop, err = mos.NewPopulation(mos.PopulationConfig{Size: 512, Seed: f.seeds.Uint64() | 1}); err != nil {
			return repStats{}, err
		}
	}
	o, err := origin.New(ocfg)
	if err != nil {
		return repStats{}, err
	}
	defer o.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return repStats{}, err
	}
	srv := &http.Server{Handler: t.wrapHandler(o)}
	go func() { _ = srv.Serve(ln) }() // returns ErrServerClosed at Shutdown
	httpc := &http.Client{Transport: t.wrapTransport(&http.Transport{
		MaxIdleConns:        f.in.size.W + 4,
		MaxIdleConnsPerHost: f.in.size.W + 4,
		// As in fleet.Run: on a reused connection net/http silently replays
		// a GET the server reset, hiding the fault from the client ledger.
		DisableKeepAlives: f.chaos,
	})}
	base := "http://" + ln.Addr().String()
	abrs := fleet.AllABRs()
	results := make([]sessionResult, sessions)
	t.end(boot)

	// Sessions never fail the loop: a failed session is a ledger entry.
	_ = par.ForEachN(sessions, f.in.size.W, func(k int) error {
		clock.Enter()
		defer clock.Exit()
		sess := int32(k)
		root := t.begin(kSession, 0, sess, 0)
		defer t.end(root)
		vi, ti, ai := mixSlot(k, len(f.videos), len(f.names), len(abrs))
		alg, err := fleet.NewAlgorithm(abrs[ai])
		if err != nil {
			results[k].err = err
			return nil
		}
		talg := &tracedAlg{Algorithm: alg, t: t, sess: sess}
		c := &dash.Client{
			BaseURL:   base,
			Algorithm: talg,
			Trace:     f.names[ti],
			TimeScale: 1,
			HTTP:      httpc,
			Clock:     clock,
		}
		var trater *tracedRater
		if f.chaos {
			rater, err := pop.SessionRater(k)
			if err != nil {
				results[k].err = err
				return nil
			}
			trater = &tracedRater{Rater: rater, t: t, sess: sess}
			c.Rater = trater
			c.Events, c.Metrics = qlog.NewRing(0), metrics
			c.ChaosKey = fmt.Sprintf("s%04d", k)
			c.Retry = par.Backoff{Seed: chaosSeed ^ ((uint64(k) + 1) * 0x9e3779b97f4a7c15)}
		}

		stream := t.begin(kStream, 0, sess, root)
		talg.parent = stream
		if trater != nil {
			trater.parent = stream
		}
		s, err := c.Stream(withSpan(ctx, sess, stream), f.videos[vi])
		t.end(stream)
		r := &results[k]
		if err != nil {
			r.err = err
		} else {
			r.segments = int64(len(s.Rendering.Rungs))
			r.bytes = s.BytesDownloaded
			r.refetches = int64(s.WeightRefreshes)
		}
		leave := t.begin(kLeave, 0, sess, root)
		if lerr := c.Leave(withSpan(ctx, sess, leave)); lerr != nil && r.err == nil {
			r.err = fmt.Errorf("leave: %w", lerr)
		}
		t.end(leave)
		r.retries = c.Resilience().Retries
		if c.Events != nil {
			r.events = int64(len(c.Events.Drain(nil)))
			r.drops = c.Events.Drops()
		}
		return nil
	})

	down := t.begin(kBoot, 0, sessRun, 0)
	if f.chaos {
		dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		err := o.DrainIngest(dctx)
		cancel()
		if err != nil {
			return repStats{}, fmt.Errorf("traced fleet: draining ingest autopilot: %w", err)
		}
	}
	st := o.Stats()
	httpc.CloseIdleConnections()
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	err = srv.Shutdown(sctx) // waits for every handler, so every span is ended
	cancel()
	if err != nil {
		return repStats{}, fmt.Errorf("traced fleet: origin shutdown: %w", err)
	}
	t.end(down)

	r := repStats{Attempted: int64(sessions)}
	f.counts = layerCounts{Sessions: int64(sessions)}
	for k, s := range results {
		if s.err != nil {
			r.Failed++
			r.Problems = append(r.Problems, fmt.Sprintf("traced session %d: %v", k, s.err))
			continue
		}
		r.Segments += s.segments
		r.Bytes += s.bytes
		f.counts.Retries += s.retries
		f.counts.Events += s.events
		f.counts.RingDrops += s.drops
		f.counts.Refetches += s.refetches
	}
	if r.Failed == 0 {
		// With every session complete the two ledgers must agree exactly,
		// faults, truncated deliveries and retries included.
		if st.SegmentsServed != r.Segments || st.BytesServed != r.Bytes {
			r.Problems = append(r.Problems, fmt.Sprintf("origin served %d segments / %d bytes, clients hold %d / %d",
				st.SegmentsServed, st.BytesServed, r.Segments, r.Bytes))
		}
		if st.ActiveSessions != 0 {
			r.Problems = append(r.Problems, fmt.Sprintf("%d sessions still registered after the run", st.ActiveSessions))
		}
	}
	if st.Chaos != nil {
		f.counts.Faults = st.Chaos.Total
	}
	if st.Ingest != nil {
		f.counts.Ratings = st.Ingest.RatingsAccepted + st.Ingest.RatingsQuarantined
		f.counts.Refreshes = st.Ingest.RefreshesApplied
	}
	if metrics != nil {
		f.counts.RingDrops = metrics.RingDrops.Load() // the shared registry sees both sides
	}
	if !f.chaos {
		r.Digest = uint64(r.Segments)<<40 ^ uint64(r.Bytes)
	}
	return r, nil
}
