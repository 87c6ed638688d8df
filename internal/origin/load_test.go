package origin

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"sensei/internal/dash"
	"sensei/internal/player"
	"sensei/internal/video"
)

// TestOriginLoadConcurrentSessions is the multi-tenant load test: one
// origin, a multi-video catalog, N concurrent clients split across two
// traces. It asserts (a) every session completes with a valid rendering,
// (b) per-session shaper isolation — sessions replaying the fast trace
// observe materially higher throughput than sessions on the slow trace,
// which is impossible with the old single global shaper — and (c) /stats
// accounting matches the client-side byte and segment ledgers exactly.
// Run it under -race for the full satellite guarantee; -short shrinks the
// fleet for CI smoke.
func TestOriginLoadConcurrentSessions(t *testing.T) {
	clients := 32
	if testing.Short() {
		clients = 12
	}
	// Gentler compression than the e2e tests: per-request CPU and HTTP
	// overhead is divided by the scale when converted to virtual seconds,
	// so an aggressive scale would drown the shaping signal in protocol
	// noise — especially under the race detector on few cores, where the
	// copying itself is expensive.
	scale := 0.02
	if raceEnabled {
		scale = 0.2
	}

	catalog := []*video.Video{
		excerptOf(t, "Soccer1", 6),
		excerptOf(t, "Tank", 6),
		excerptOf(t, "Mountain", 6),
		excerptOf(t, "Lava", 6),
	}
	var profiled atomic.Int64
	o, base := startOrigin(t, Config{
		Catalog: catalog,
		Profile: func(v *video.Video) ([]float64, error) {
			profiled.Add(1)
			return v.TrueSensitivity(), nil
		},
		Traces: flatTraces(map[string]float64{
			"fast": 3.2e7, // 32 Mbps
			"slow": 2e6,   // 2 Mbps
		}),
		DefaultTrace: "fast",
		TimeScale:    scale,
	})

	type outcome struct {
		sess  *dash.Session
		trace string
		err   error
	}
	results := make([]outcome, clients)
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			v := catalog[k%len(catalog)]
			traceName := "fast"
			if k%2 == 1 {
				traceName = "slow"
			}
			// A fixed top-rung algorithm keeps segments large, so the
			// throughput measurement is dominated by shaped transfer
			// time, not per-request protocol overhead.
			c := &dash.Client{
				BaseURL:   base,
				Algorithm: fixedRung{rung: len(v.Ladder) - 1},
				Trace:     traceName,
			}
			sess, err := c.Stream(context.Background(), v)
			results[k] = outcome{sess: sess, trace: traceName, err: err}
		}(k)
	}
	wg.Wait()

	var totalBytes, totalSegments int64
	var fastBps, slowBps []float64
	for k, r := range results {
		if r.err != nil {
			t.Fatalf("client %d: %v", k, r.err)
		}
		if err := r.sess.Rendering.Validate(); err != nil {
			t.Fatalf("client %d rendering: %v", k, err)
		}
		if r.sess.BytesDownloaded == 0 || r.sess.DownloadVirtualSec <= 0 {
			t.Fatalf("client %d downloaded nothing", k)
		}
		totalBytes += r.sess.BytesDownloaded
		totalSegments += int64(len(r.sess.Rendering.Rungs))
		bps := float64(r.sess.BytesDownloaded*8) / r.sess.DownloadVirtualSec
		if r.trace == "fast" {
			fastBps = append(fastBps, bps)
		} else {
			slowBps = append(slowBps, bps)
		}
	}

	// Per-session shaper isolation: with one global cursor every session
	// converges on the same contended bandwidth; with per-session cursors
	// the fast cohort must observe clearly higher throughput. The 16×
	// trace gap leaves ample room for CPU-contention noise on small
	// shared-core runners.
	fastMean := mean(fastBps)
	slowMean := mean(slowBps)
	t.Logf("fast cohort %.2f Mbps, slow cohort %.2f Mbps (%d clients, scale %g)",
		fastMean/1e6, slowMean/1e6, clients, scale)
	if fastMean < 1.8*slowMean {
		t.Fatalf("no shaper isolation: fast cohort %.0f bps, slow cohort %.0f bps", fastMean, slowMean)
	}

	st := o.Stats()
	if st.ActiveSessions != clients || st.SessionsCreated != int64(clients) {
		t.Fatalf("stats sessions: %+v", st)
	}
	if st.BytesServed != totalBytes {
		t.Fatalf("stats bytes %d, clients downloaded %d", st.BytesServed, totalBytes)
	}
	if st.SegmentsServed != totalSegments {
		t.Fatalf("stats segments %d, clients fetched %d", st.SegmentsServed, totalSegments)
	}
	var hitSum int64
	for _, v := range catalog {
		hitSum += st.VideoHits[v.Name]
		if st.VideoHits[v.Name] == 0 {
			t.Fatalf("video %q served no segments: %+v", v.Name, st.VideoHits)
		}
	}
	if hitSum != totalSegments {
		t.Fatalf("per-video hits sum %d, want %d", hitSum, totalSegments)
	}
	// Weights were profiled at most once per video despite the fleet of
	// concurrent manifest requests.
	if got := profiled.Load(); got != int64(len(catalog)) {
		t.Fatalf("profiler ran %d times for %d videos", got, len(catalog))
	}
}

// fixedRung always requests one ladder rung — deterministic traffic for
// load accounting.
type fixedRung struct{ rung int }

func (f fixedRung) Name() string                         { return fmt.Sprintf("fixed-%d", f.rung) }
func (f fixedRung) Decide(*player.State) player.Decision { return player.Decision{Rung: f.rung} }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
