package origin

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sensei/internal/chaos"
	"sensei/internal/trace"
	"sensei/internal/video"
	"sensei/internal/wire"
)

// hotPathRung is the ladder rung the hot-path tests request.
const hotPathRung = 0

// hotPathConfig is the origin the hot-path tests serve: the first 6 chunks
// of Soccer1, profiled, behind a near-infinite-rate trace, so shaping
// sleeps vanish and what is left is routing, session resolve and the
// streaming loop.
func hotPathConfig(t testing.TB) Config {
	t.Helper()
	return Config{
		Catalog:      []*video.Video{excerptOf(t, "Soccer1", 6)},
		Profile:      trueSensitivityProfile,
		Traces:       map[string]*trace.Trace{"wire": {Name: "wire", BitsPerSecond: []float64{1e15}}},
		DefaultTrace: "wire",
		TimeScale:    0.001,
	}
}

// newHotPathOrigin builds an in-memory origin on hotPathConfig without
// starting a TCP server — these tests exercise the handlers and registry
// directly.
func newHotPathOrigin(t testing.TB) *Origin {
	t.Helper()
	o, err := New(hotPathConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Close)
	return o
}

// joinDirect registers a session without HTTP.
func joinDirect(t testing.TB, o *Origin) *session {
	t.Helper()
	v := o.cfg.Catalog[0]
	s, err := newTestSession(o, v.Name)
	if err != nil {
		t.Fatal(err)
	}
	if !o.addSession(s) {
		t.Fatal("addSession refused")
	}
	return s
}

// newTestSession builds a registrable session on the origin's default
// trace.
func newTestSession(o *Origin, videoName string) (*session, error) {
	shaper, err := NewShaper(o.cfg.Traces[o.cfg.DefaultTrace], o.cfg.TimeScale, o.cfg.Clock)
	if err != nil {
		return nil, err
	}
	s := &session{
		id:        NewSessionID(),
		videoName: videoName,
		traceName: o.cfg.DefaultTrace,
		timeScale: o.cfg.TimeScale,
		shaper:    shaper,
		created:   o.cfg.Clock.Now(),
	}
	s.touch(s.created)
	return s, nil
}

// TestRegistryShardStress hammers the striped registry from every angle at
// once — joins, streams (lookup + in-flight mark + per-stripe accounting),
// voluntary leaves, idle expiry and /stats folds — and then reconciles the
// lifecycle ledger exactly. Run under -race this is the registry's
// linearizability smoke: the lookup/in-flight/remove contract must hold on
// every stripe.
func TestRegistryShardStress(t *testing.T) {
	o := newHotPathOrigin(t)
	v := o.cfg.Catalog[0]

	const workers = 8
	iters := 300
	if testing.Short() {
		iters = 60
	}

	var wg, antWg sync.WaitGroup
	var streamed, left atomic.Int64
	stop := make(chan struct{})

	// Janitor antagonist: expire anything idle "an hour from now", so every
	// session not mid-stream is a candidate the moment it appears. Paced —
	// each lap locks all 32 stripes, and a busy spin starves the workers on
	// a single-CPU runner.
	antWg.Add(1)
	go func() {
		defer antWg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
				o.expireIdle(o.cfg.Clock.Now() + o.cfg.SessionIdleTimeout + time.Hour)
			}
		}
	}()
	// Stats antagonist: folds every stripe while the others mutate them.
	antWg.Add(1)
	go func() {
		defer antWg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
				st := o.Stats()
				if st.ActiveSessions < 0 {
					t.Error("negative active sessions")
					return
				}
			}
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				s, err := newTestSession(o, v.Name)
				if err != nil {
					t.Error(err)
					return
				}
				if !o.addSession(s) {
					t.Error("registry refused a join under cap")
					return
				}
				// Stream: resolve + hold in-flight, account, release — the
				// handler's skeleton without HTTP. While held, neither the
				// janitor antagonist nor a concurrent remove may take it.
				got, ok := o.lookupSessionStream(s.id)
				if !ok {
					// addSession publishes with nothing in flight, so the
					// janitor antagonist (cutoff an hour ahead) may legally
					// have expired it already. That it was the janitor, and
					// nothing else, is what the closed/expired ledger below
					// proves: this session must be found in SessionsExpired.
					continue
				}
				if got != s {
					t.Errorf("worker %d: lookup of %s resolved another session", w, s.id)
					return
				}
				if o.removeSession(s.id) != removeBusy {
					t.Errorf("worker %d: in-flight session %s was removable", w, s.id)
					return
				}
				got.bytes.Add(1024)
				got.shard.bytes.Add(1024)
				got.segments.Add(1)
				got.shard.segments.Add(1)
				got.inflight.Add(-1)
				streamed.Add(1)
				// Half leave voluntarily; half go idle for the janitor.
				if i%2 == 0 {
					switch o.removeSession(s.id) {
					case removeDone:
						left.Add(1)
					case removeMissing: // janitor won the race after release
					default:
						t.Errorf("worker %d: drained session %s not removable", w, s.id)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	antWg.Wait()

	// Let the janitor antagonist's final laps finish via a direct sweep.
	o.expireIdle(o.cfg.Clock.Now() + o.cfg.SessionIdleTimeout + time.Hour)

	st := o.Stats()
	want := int64(workers * iters)
	if st.SessionsCreated != want {
		t.Fatalf("created %d sessions, want %d", st.SessionsCreated, want)
	}
	if st.ActiveSessions != 0 {
		t.Fatalf("%d sessions leaked past leave+expiry", st.ActiveSessions)
	}
	// Every session a worker did not close itself — the ones it left idle,
	// lost to the janitor after release, or never got to stream — was taken
	// by the janitor, exactly once.
	if st.SessionsClosed != left.Load() || st.SessionsExpired != want-left.Load() {
		t.Fatalf("closed %d + expired %d, want %d + %d", st.SessionsClosed, st.SessionsExpired, left.Load(), want-left.Load())
	}
	if st.SegmentsServed != streamed.Load() || st.BytesServed != streamed.Load()*1024 {
		t.Fatalf("stripe ledger fold: %d segments / %d bytes, want %d / %d",
			st.SegmentsServed, st.BytesServed, streamed.Load(), streamed.Load()*1024)
	}
	if o.active.Load() != 0 {
		t.Fatalf("active reservation leaked: %d", o.active.Load())
	}
}

// nullResponseWriter is the allocation test's sink: a ResponseWriter (and
// Flusher, like the real one on the segment path) that retains its header
// map across requests and discards the body.
type nullResponseWriter struct {
	h http.Header
	n int64
}

func (w *nullResponseWriter) Header() http.Header        { return w.h }
func (w *nullResponseWriter) WriteHeader(statusCode int) {}
func (w *nullResponseWriter) Flush()                     {}
func (w *nullResponseWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// TestSegmentSteadyStateZeroAlloc pins the hot-path contract: after the
// first request warms the per-video caches (epoch stamp, profile holder),
// serving a segment allocates nothing, routing included — the request is a
// plain one through ServeHTTP, as a client's arrives. Any regression here
// is a per-segment GC tax at production rates.
func TestSegmentSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	o := newHotPathOrigin(t)
	v := o.cfg.Catalog[0]
	s := joinDirect(t, o)

	// Resolve the profile so the epoch beacon exercises the cached-holder
	// path, not the cold zeroStamp shortcut.
	if _, err := o.profileOf(o.videos[v.Name]); err != nil {
		t.Fatal(err)
	}

	req := httptest.NewRequest(http.MethodGet,
		fmt.Sprintf("/v/%s/segment/0/%d?sid=%s", url.PathEscape(v.Name), hotPathRung, s.id), nil)
	w := &nullResponseWriter{h: make(http.Header)}

	o.ServeHTTP(w, req) // warm: header map entries, epoch stamp
	if w.n == 0 {
		t.Fatal("warm-up request served no bytes")
	}
	wantBytes := w.n

	allocs := testing.AllocsPerRun(200, func() {
		w.n = 0
		o.ServeHTTP(w, req)
		if w.n != wantBytes {
			t.Fatalf("served %d bytes, want %d", w.n, wantBytes)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state segment path allocates %.1f objects/op, want 0", allocs)
	}
	if got := w.h.Get(wire.WeightEpochHeader); got == "" || got == "0" {
		t.Fatalf("epoch beacon %q; want a live epoch (holder cache not engaged)", got)
	}
}

// TestSegmentCallSteadyStateZeroAlloc extends the hot-path pin to the
// fleet's adapter: a steady-state segment Call — the core, the throttle's
// sleep, the settling and the Answer — allocates nothing either.
func TestSegmentCallSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	o := newHotPathOrigin(t)
	v := o.cfg.Catalog[0]
	s := joinDirect(t, o)
	if _, err := o.profileOf(o.videos[v.Name]); err != nil {
		t.Fatal(err)
	}
	c := &wire.Call{Route: wire.RouteSegment, SID: s.id, Video: v.Name, Rung: hotPathRung}
	var a wire.Answer
	ctx := context.Background()
	want := int64(v.ChunkSizeBits(0, hotPathRung) / 8)
	allocs := testing.AllocsPerRun(200, func() {
		if err := o.Call(ctx, c, &a); err != nil || a.Status != http.StatusOK || a.N != want {
			t.Fatalf("segment call: status %d, %d bytes, %v; want %d", a.Status, a.N, err, want)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state segment call allocates %.1f objects/op, want 0", allocs)
	}
	if a.Epoch == 0 {
		t.Fatal("epoch beacon 0; want a live epoch (holder cache not engaged)")
	}
}

// TestJoinLeaveAllocs pins what a session's join and leave through Call
// allocate with no logger set, exactly, as a fleet session joins and
// leaves: the origin mints the session ID. It reads 4: the session, its
// shaper (whose trace cursor is a field), its ID string, and the caller's
// copy of that ID read from the reply. The request's video and trace names
// are the catalog's and the trace set's own strings, the ID is encoded on
// the stack, and the reply goes out through the pooled body buffer.
// Arguments boxed for an unset logger read 11 or more.
func TestJoinLeaveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	o := newHotPathOrigin(t)
	v := o.cfg.Catalog[0]
	join := wire.Call{Route: wire.RouteJoin, Body: (&wire.JoinRequest{Video: v.Name, Trace: "wire", TimeScale: 0.5}).AppendJSON(nil)}
	var a wire.Answer
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		var jr wire.JoinResponse
		if err := o.Call(ctx, &join, &a); err != nil || a.Status != http.StatusOK {
			t.Fatalf("join: status %d, %v", a.Status, err)
		}
		if err := jr.Parse(a.Body, v.Name, "wire"); err != nil {
			t.Fatal(err)
		}
		leave := wire.Call{Route: wire.RouteLeave, ID: jr.SessionID}
		if err := o.Call(ctx, &leave, &a); err != nil || a.Status != http.StatusNoContent {
			t.Fatalf("leave: status %d, %v", a.Status, err)
		}
	})
	const want = 4
	t.Logf("%.2f allocations per join and leave", allocs)
	if allocs != want {
		t.Fatalf("a join and leave allocate %.2f objects, want exactly %d", allocs, want)
	}
}

// TestSegmentShapedSleepZeroAlloc extends the hot-path pin to the throttle
// on the wall clock. hotPathConfig's time scale rounds every throttle to
// 0 ns, so TestSegmentSteadyStateZeroAlloc never reaches a timer; here the
// trace is slowed until each segment sleeps about 20 µs of wall time, and
// the request must still allocate nothing.
func TestSegmentShapedSleepZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	cfg := hotPathConfig(t)
	const sleep = 20 * time.Microsecond
	bits := cfg.Catalog[0].ChunkSizeBits(0, hotPathRung)
	cfg.Traces = map[string]*trace.Trace{"wire": {Name: "wire", BitsPerSecond: []float64{bits / sleep.Seconds()}}}
	cfg.TimeScale = 1
	o, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Close)
	v := cfg.Catalog[0]
	s := joinDirect(t, o)
	if _, err := o.profileOf(o.videos[v.Name]); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet,
		fmt.Sprintf("/v/%s/segment/0/%d?sid=%s", url.PathEscape(v.Name), hotPathRung, s.id), nil)
	w := &nullResponseWriter{h: make(http.Header)}

	o.ServeHTTP(w, req) // warm: header map entries, epoch stamp, a pooled timer
	if w.n == 0 {
		t.Fatal("warm-up request served no bytes")
	}
	wantBytes := w.n

	const runs = 200
	start := time.Now()
	allocs := testing.AllocsPerRun(runs, func() {
		w.n = 0
		o.ServeHTTP(w, req)
		if w.n != wantBytes {
			t.Fatalf("served %d bytes, want %d", w.n, wantBytes)
		}
	})
	if elapsed := time.Since(start); elapsed < runs*sleep {
		t.Fatalf("%d shaped requests took %v, want at least %v: the throttle did not sleep", runs, elapsed, runs*sleep)
	}
	if allocs != 0 {
		t.Fatalf("shaped segment path allocates %.1f objects/op, want 0", allocs)
	}
}

// TestSegmentChaosIdleAllocParity pins "chaos off the hot path" as a count:
// a fault policy at rate 0 is consulted on every request but never fires,
// and must cost the segment request nothing. Two origins built from the
// same config, one with the idle policy, serve the steady-state segment
// request through ServeHTTP (routing and, on one side, the adapter's call
// into Injector.Decide included); both must serve the same bytes with the
// same allocations.
func TestSegmentChaosIdleAllocParity(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	serve := func(p *chaos.Policy) (bytes int64, allocs float64, o *Origin) {
		cfg := hotPathConfig(t)
		cfg.Chaos = p
		o, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(o.Close)
		v := cfg.Catalog[0]
		s := joinDirect(t, o)
		if _, err := o.profileOf(o.videos[v.Name]); err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodGet,
			fmt.Sprintf("/v/%s/segment/0/%d?sid=%s", url.PathEscape(v.Name), hotPathRung, s.id), nil)
		w := &nullResponseWriter{h: make(http.Header)}
		o.ServeHTTP(w, req) // warm
		if w.n == 0 {
			t.Fatal("warm-up request served no bytes")
		}
		bytes = w.n
		allocs = testing.AllocsPerRun(200, func() {
			w.n = 0
			o.ServeHTTP(w, req)
			if w.n != bytes {
				t.Fatalf("served %d bytes, want %d", w.n, bytes)
			}
		})
		return bytes, allocs, o
	}

	plainBytes, plainAllocs, _ := serve(nil)
	idle := chaos.Uniform(1, 0)
	idleBytes, idleAllocs, o := serve(&idle)
	t.Logf("%d bytes, %.2f allocs/op without chaos, %.2f with an idle policy", plainBytes, plainAllocs, idleAllocs)
	if idleBytes != plainBytes {
		t.Fatalf("idle chaos served %d bytes, plain %d", idleBytes, plainBytes)
	}
	if idleAllocs != plainAllocs {
		t.Fatalf("idle chaos allocates %.2f objects/op, plain %.2f", idleAllocs, plainAllocs)
	}
	if n := o.chaos.Stats().Total; n != 0 {
		t.Fatalf("idle policy injected %d faults", n)
	}
}

// TestEpochStampSharedPerEpoch: a catalog video builds one epoch stamp per
// epoch, and every reply that carries that epoch — segment, manifest,
// weights and refresh — points at it. Under concurrent refreshes each
// reply's header still names the epoch its body was built for.
func TestEpochStampSharedPerEpoch(t *testing.T) {
	o := newHotPathOrigin(t)
	v := o.cfg.Catalog[0]
	s := joinDirect(t, o)
	answer := func(c wire.Call) reply {
		t.Helper()
		rp := o.answer(&request{Call: c, buf: new(bodyBuf)})
		if rp.status != http.StatusOK || rp.epoch == nil {
			t.Fatalf("route %d: status %d (%s), epoch stamp %v", c.Route, rp.status, rp.body, rp.epoch)
		}
		if rp.sess != nil {
			rp.sess.inflight.Add(-1)
		}
		return rp
	}
	// The manifest resolves the profile; the segment after it is stamped
	// from the live holder rather than the cold zeroStamp.
	man := answer(wire.Call{Route: wire.RouteManifest, SID: s.id, Video: v.Name})
	seg := answer(wire.Call{Route: wire.RouteSegment, SID: s.id, Video: v.Name, Rung: hotPathRung})
	wts := answer(wire.Call{Route: wire.RouteWeights, SID: s.id})
	if man.epoch != seg.epoch || wts.epoch != seg.epoch || seg.epoch.epoch != 1 {
		t.Fatalf("epoch 1 stamps: manifest %p, segment %p, weights %p (epoch %d); want one",
			man.epoch, seg.epoch, wts.epoch, seg.epoch.epoch)
	}
	ref := answer(wire.Call{Route: wire.RouteRefresh, Body: []byte(`{"video":"` + v.Name + `","from":0,"to":3}`)})
	seg2 := answer(wire.Call{Route: wire.RouteSegment, SID: s.id, Video: v.Name, Rung: hotPathRung})
	man2 := answer(wire.Call{Route: wire.RouteManifest, SID: s.id, Video: v.Name})
	wts2 := answer(wire.Call{Route: wire.RouteWeights, SID: s.id})
	if ref.epoch != seg2.epoch || man2.epoch != seg2.epoch || wts2.epoch != seg2.epoch || seg2.epoch.epoch != 2 || seg2.epoch == seg.epoch {
		t.Fatalf("epoch 2 stamps: refresh %p, segment %p, manifest %p, weights %p (epoch %d; epoch 1's %p); want one new",
			ref.epoch, seg2.epoch, man2.epoch, wts2.epoch, seg2.epoch.epoch, seg.epoch)
	}
	if h := seg2.epoch.header; len(h) != 1 || h[0] != "2" {
		t.Fatalf("epoch 2 header %q", h)
	}

	// Two refreshers and two readers race; every control reply's header
	// must equal the epoch in its body.
	const refreshes = 25
	ctx := context.Background()
	var wg sync.WaitGroup
	var done atomic.Int32
	call := func(c *wire.Call, a *wire.Answer) bool {
		if err := o.Call(ctx, c, a); err != nil || a.Status != http.StatusOK {
			t.Errorf("route %d: status %d, %v: %s", c.Route, a.Status, err, a.Body)
			return false
		}
		return true
	}
	for g := range 2 {
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer done.Add(1)
			c := wire.Call{Route: wire.RouteRefresh, Body: []byte(fmt.Sprintf(`{"video":%q,"from":%d,"to":%d}`, v.Name, g, g+3))}
			var a wire.Answer
			for range refreshes {
				var rr wire.RefreshResponse
				if !call(&c, &a) || json.Unmarshal(a.Body, &rr) != nil || rr.Epoch != a.Epoch {
					t.Errorf("refresh reply: header epoch %d, body %s", a.Epoch, a.Body)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			man := wire.Call{Route: wire.RouteManifest, SID: s.id, Video: v.Name}
			wts := wire.Call{Route: wire.RouteWeights, SID: s.id}
			seg := wire.Call{Route: wire.RouteSegment, SID: s.id, Video: v.Name, Rung: hotPathRung}
			var a wire.Answer
			var last uint64
			for done.Load() < 2 {
				if !call(&man, &a) {
					return
				}
				var m wire.MPD
				if err := m.Parse(a.Body); err != nil || m.WeightEpoch() != a.Epoch {
					t.Errorf("manifest reply: header epoch %d, body %q (%v)", a.Epoch, a.Body, err)
					return
				}
				var wr wire.WeightsResponse
				if !call(&wts, &a) || wr.Parse(a.Body) != nil || wr.Epoch != a.Epoch {
					t.Errorf("weights reply: header epoch %d, body %s", a.Epoch, a.Body)
					return
				}
				if !call(&seg, &a) || a.Epoch < last {
					t.Errorf("segment epoch went from %d to %d", last, a.Epoch)
					return
				}
				last = a.Epoch
			}
		}()
	}
	wg.Wait()
	if p, _ := o.profileOf(o.videos[v.Name]); p.Epoch != 2+2*refreshes {
		t.Fatalf("final epoch %d, want %d", p.Epoch, 2+2*refreshes)
	}
}
