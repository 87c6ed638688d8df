package ingest

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"sensei/internal/video"
)

// testVideo cuts an 8-chunk clip (two default-width windows).
func testVideo(t testing.TB) *video.Video {
	t.Helper()
	full, err := video.ByName("Soccer1")
	if err != nil {
		t.Fatal(err)
	}
	v, err := full.Excerpt(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// windowCall records one RefreshWindow invocation.
type windowCall struct {
	video  string
	lo, hi int
}

// stubRefresher is a controllable weight plane: a fixed (or self-bumping)
// epoch and a scripted RefreshWindow.
type stubRefresher struct {
	mu    sync.Mutex
	epoch uint64
	calls []windowCall
	err   error
	bump  bool          // RefreshWindow advances the epoch
	gate  chan struct{} // when non-nil, RefreshWindow blocks on it
}

func (s *stubRefresher) EpochOf(string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

func (s *stubRefresher) RefreshWindow(videoName string, lo, hi int) (uint64, error) {
	if s.gate != nil {
		<-s.gate
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls = append(s.calls, windowCall{videoName, lo, hi})
	if s.err != nil {
		return 0, s.err
	}
	if s.bump {
		s.epoch++
	}
	return s.epoch, nil
}

func (s *stubRefresher) callCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.calls)
}

// fakeClock is a manually advanced Now hook.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// newTestPlane builds a plane with tight test tuning over the stub.
func newTestPlane(t testing.TB, ref Refresher, mutate func(*Config)) *Plane {
	t.Helper()
	cfg := Config{
		WindowChunks:   4,
		MinSamples:     6,
		MinInterval:    time.Millisecond,
		MinWeightDelta: 0.1,
		Gain:           2,
		DecayHalfLife:  time.Hour,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	p, err := New(cfg, ref, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// drain waits for the autopilot to settle.
func drain(t testing.TB, p *Plane) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := p.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
}

// contrastLoad alternates high ratings into window 0 and low ratings into
// window 1 until each window holds n samples.
func contrastLoad(t testing.TB, p *Plane, v *video.Video, epoch uint64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := p.Ingest(v, 0, epoch, 5); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Ingest(v, 4, epoch, 1); err != nil {
			t.Fatal(err)
		}
	}
}

func TestIngestRejectsMalformed(t *testing.T) {
	v := testVideo(t)
	p := newTestPlane(t, &stubRefresher{epoch: 1}, nil)
	if _, err := p.Ingest(v, -1, 1, 3); err == nil {
		t.Error("negative chunk accepted")
	}
	if _, err := p.Ingest(v, v.NumChunks(), 1, 3); err == nil {
		t.Error("out-of-range chunk accepted")
	}
	if _, err := p.Ingest(v, 0, 1, 0); err == nil {
		t.Error("rating 0 accepted")
	}
	if _, err := p.Ingest(v, 0, 1, 6); err == nil {
		t.Error("rating 6 accepted")
	}
	st := p.Stats()
	if st.RatingsRejected != 4 || st.RatingsAccepted != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestIngestQuarantinesStaleEpoch(t *testing.T) {
	v := testVideo(t)
	ref := &stubRefresher{epoch: 3}
	p := newTestPlane(t, ref, nil)
	// Stale (older), future (newer) and unprofiled-video ratings all
	// quarantine; none may ever reach the evidence or trigger a refresh,
	// however many arrive.
	for i := 0; i < 100; i++ {
		out, err := p.Ingest(v, 0, 2, 5)
		if err != nil || out != Quarantined {
			t.Fatalf("stale: outcome %v err %v", out, err)
		}
		if out, err := p.Ingest(v, 4, 4, 1); err != nil || out != Quarantined {
			t.Fatalf("future: outcome %v err %v", out, err)
		}
	}
	ref.mu.Lock()
	ref.epoch = 0
	ref.mu.Unlock()
	if out, _ := p.Ingest(v, 0, 0, 5); out != Quarantined {
		t.Fatalf("unprofiled video rating not quarantined: %v", out)
	}
	drain(t, p)
	st := p.Stats()
	if st.RatingsQuarantined != 201 || st.RatingsAccepted != 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.RefreshesTriggered != 0 || ref.callCount() != 0 {
		t.Fatalf("quarantined evidence triggered a refresh: %+v", st)
	}
}

func TestAutopilotTriggersOnContrast(t *testing.T) {
	v := testVideo(t)
	ref := &stubRefresher{epoch: 1}
	p := newTestPlane(t, ref, nil)
	contrastLoad(t, p, v, 1, 6)
	drain(t, p)
	st := p.Stats()
	if st.RefreshesTriggered != 1 || st.RefreshesApplied != 1 || st.RefreshErrors != 0 {
		t.Fatalf("stats %+v", st)
	}
	ref.mu.Lock()
	calls := append([]windowCall(nil), ref.calls...)
	ref.mu.Unlock()
	if len(calls) != 1 {
		t.Fatalf("calls %v", calls)
	}
	// Both windows pass the gate the moment the other side has evidence;
	// whichever triggered, the job must cover exactly one window of the
	// right video.
	c := calls[0]
	if c.video != v.Name || c.hi-c.lo != 4 || (c.lo != 0 && c.lo != 4) {
		t.Fatalf("refresh window %+v", c)
	}
}

func TestGateNeedsMinSamples(t *testing.T) {
	v := testVideo(t)
	ref := &stubRefresher{epoch: 1}
	p := newTestPlane(t, ref, func(c *Config) { c.MinSamples = 50 })
	contrastLoad(t, p, v, 1, 20)
	drain(t, p)
	if st := p.Stats(); st.RefreshesTriggered != 0 {
		t.Fatalf("triggered below the sample floor: %+v", st)
	}
}

func TestGateHysteresis(t *testing.T) {
	v := testVideo(t)
	ref := &stubRefresher{epoch: 1}
	p := newTestPlane(t, ref, func(c *Config) { c.MinWeightDelta = 3 })
	// Full-scale contrast implies a weight delta of Gain×1 = 2 < 3.
	contrastLoad(t, p, v, 1, 30)
	drain(t, p)
	if st := p.Stats(); st.RefreshesTriggered != 0 {
		t.Fatalf("triggered below the hysteresis threshold: %+v", st)
	}
}

func TestGateUniformRatingsNeverTrigger(t *testing.T) {
	v := testVideo(t)
	ref := &stubRefresher{epoch: 1}
	p := newTestPlane(t, ref, nil)
	for i := 0; i < 50; i++ {
		for chunk := 0; chunk < v.NumChunks(); chunk++ {
			if _, err := p.Ingest(v, chunk, 1, 4); err != nil {
				t.Fatal(err)
			}
		}
	}
	drain(t, p)
	if st := p.Stats(); st.RefreshesTriggered != 0 {
		t.Fatalf("uniform opinion triggered a refresh: %+v", st)
	}
}

func TestSingleWindowVideoNeverTriggers(t *testing.T) {
	full, err := video.ByName("Soccer1")
	if err != nil {
		t.Fatal(err)
	}
	v, err := full.Excerpt(0, 3) // 3 chunks < one window
	if err != nil {
		t.Fatal(err)
	}
	ref := &stubRefresher{epoch: 1}
	p := newTestPlane(t, ref, nil)
	for i := 0; i < 50; i++ {
		if _, err := p.Ingest(v, 0, 1, 5); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, p)
	if st := p.Stats(); st.RefreshesTriggered != 0 {
		t.Fatalf("single-window video triggered (no contrast baseline exists): %+v", st)
	}
}

func TestGateMinIntervalRateLimits(t *testing.T) {
	v := testVideo(t)
	ref := &stubRefresher{epoch: 1}
	clk := &fakeClock{t: time.Unix(1000, 0)}
	p := newTestPlane(t, ref, func(c *Config) {
		c.MinInterval = time.Hour
		c.Now = clk.now
		// Keep the evidence intact across the clock jumps; decay has its
		// own test.
		c.DecayHalfLife = 10000 * time.Hour
	})
	contrastLoad(t, p, v, 1, 6)
	drain(t, p)
	if st := p.Stats(); st.RefreshesApplied != 1 {
		t.Fatalf("first trigger: %+v", st)
	}
	// The consumed window's evidence was reset; rebuild it. The other
	// window still holds contrasting evidence, so the gate would pass on
	// pure evidence grounds — only the rate limit holds it back.
	contrastLoad(t, p, v, 1, 10)
	drain(t, p)
	if st := p.Stats(); st.RefreshesTriggered != 1 {
		t.Fatalf("re-triggered inside MinInterval: %+v", st)
	}
	clk.advance(2 * time.Hour)
	contrastLoad(t, p, v, 1, 1)
	drain(t, p)
	if st := p.Stats(); st.RefreshesTriggered != 2 {
		t.Fatalf("did not re-trigger after MinInterval: %+v", st)
	}
}

func TestEvidenceDecays(t *testing.T) {
	v := testVideo(t)
	ref := &stubRefresher{epoch: 1}
	clk := &fakeClock{t: time.Unix(1000, 0)}
	p := newTestPlane(t, ref, func(c *Config) {
		c.MinSamples = 6
		c.DecayHalfLife = time.Minute
		c.Now = clk.now
	})
	// Window 0 collects 8 samples, then ages 3 half-lives: its decayed
	// count drops to 1 — below the floor — so fresh contrast in window 1
	// cannot ride on stale window-0 evidence.
	for i := 0; i < 8; i++ {
		if _, err := p.Ingest(v, 0, 1, 5); err != nil {
			t.Fatal(err)
		}
	}
	clk.advance(3 * time.Minute)
	for i := 0; i < 5; i++ {
		if _, err := p.Ingest(v, 4, 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, p)
	if st := p.Stats(); st.RefreshesTriggered != 0 {
		t.Fatalf("stale evidence window triggered: %+v", st)
	}
	// A sixth fresh sample puts window 1 itself over the floor; window 0's
	// decayed remnant still provides the contrast baseline.
	if _, err := p.Ingest(v, 4, 1, 1); err != nil {
		t.Fatal(err)
	}
	drain(t, p)
	if st := p.Stats(); st.RefreshesTriggered != 1 {
		t.Fatalf("fresh evidence did not trigger: %+v", st)
	}
}

func TestRefreshErrorKeepsEvidence(t *testing.T) {
	v := testVideo(t)
	ref := &stubRefresher{epoch: 1, err: fmt.Errorf("campaign exploded")}
	clk := &fakeClock{t: time.Unix(1000, 0)}
	p := newTestPlane(t, ref, func(c *Config) {
		c.Now = clk.now
		// The hour the clock jumps below must expire the rate limit
		// without decaying the kept evidence away.
		c.DecayHalfLife = 10000 * time.Hour
	})
	contrastLoad(t, p, v, 1, 6)
	drain(t, p)
	st := p.Stats()
	if st.RefreshErrors != 1 || st.RefreshesApplied != 0 {
		t.Fatalf("stats %+v", st)
	}
	// Evidence was kept, so once the campaign heals and the rate limit
	// expires, a single fresh rating re-triggers without rebuilding the
	// window from scratch.
	ref.mu.Lock()
	ref.err = nil
	ref.mu.Unlock()
	clk.advance(time.Hour)
	if _, err := p.Ingest(v, 0, 1, 5); err != nil {
		t.Fatal(err)
	}
	drain(t, p)
	st = p.Stats()
	if st.RefreshesApplied != 1 || st.RefreshesTriggered != 2 {
		t.Fatalf("no retry after error: %+v", st)
	}
}

func TestQueueOverflowDropsTrigger(t *testing.T) {
	v1 := testVideo(t)
	full, err := video.ByName("Tank")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := full.Excerpt(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	full2, err := video.ByName("Mountain")
	if err != nil {
		t.Fatal(err)
	}
	v3, err := full2.Excerpt(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	ref := &stubRefresher{epoch: 1, gate: gate}
	p := newTestPlane(t, ref, func(c *Config) { c.QueueDepth = 1 })
	// Whatever the test does, the worker must be unblocked before the
	// plane's Close cleanup waits for it (cleanups run LIFO, so this runs
	// first — even when an assertion below fails).
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(gate) }) }
	t.Cleanup(openGate)
	// First trigger occupies the worker (blocked on the gate), second fills
	// the one queue slot, third must be dropped — the hot path never blocks
	// on the campaign backlog.
	contrastLoad(t, p, v1, 1, 6)
	for len(p.queue) != 0 { // the worker has picked job 1 out of the queue
		time.Sleep(time.Millisecond)
	}
	contrastLoad(t, p, v2, 1, 6)
	contrastLoad(t, p, v3, 1, 6)
	st := p.Stats()
	if st.TriggersDropped != 1 || st.RefreshesTriggered != 2 {
		t.Fatalf("stats %+v", st)
	}
	openGate()
	drain(t, p)
	if st := p.Stats(); st.RefreshesApplied != 2 {
		t.Fatalf("queued jobs did not run: %+v", st)
	}
}

// TestIngestConcurrent hammers the plane from many goroutines (the race
// detector is the real assertion) and checks the ledger adds up exactly.
func TestIngestConcurrent(t *testing.T) {
	v := testVideo(t)
	ref := &stubRefresher{epoch: 1, bump: false}
	p := newTestPlane(t, ref, func(c *Config) { c.Shards = 4 })
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				chunk := (w + i) % v.NumChunks()
				epoch := uint64(1)
				if i%5 == 0 {
					epoch = 2 // a stale-epoch minority
				}
				if _, err := p.Ingest(v, chunk, epoch, 1+(chunk+i)%5); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	drain(t, p)
	st := p.Stats()
	if got := st.RatingsAccepted + st.RatingsQuarantined; got != workers*perWorker {
		t.Fatalf("ledger lost ratings: %d of %d", got, workers*perWorker)
	}
	if st.RatingsQuarantined != workers*perWorker/5 {
		t.Fatalf("quarantined %d, want %d", st.RatingsQuarantined, workers*perWorker/5)
	}
}

func TestQuiesceCanceled(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	ref := &stubRefresher{epoch: 1, gate: gate}
	p := newTestPlane(t, ref, nil)
	contrastLoad(t, p, testVideo(t), 1, 6)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := p.Quiesce(ctx); err == nil {
		t.Fatal("quiesce returned while a campaign was still in flight")
	}
}

func TestNewValidates(t *testing.T) {
	if _, err := New(Config{}, nil, nil); err == nil {
		t.Fatal("nil refresher accepted")
	}
}

// BenchmarkIngest measures the rating hot path: one shard lock, a window
// fold and the gate check per call.
func BenchmarkIngest(b *testing.B) {
	v := testVideo(b)
	ref := &stubRefresher{epoch: 1}
	p := newTestPlane(b, ref, func(c *Config) {
		// A gate that can never pass keeps the campaign out of the loop.
		c.MinWeightDelta = 1e9
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Ingest(v, i%v.NumChunks(), 1, 1+i%5); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "ratings/s")
	}
}
