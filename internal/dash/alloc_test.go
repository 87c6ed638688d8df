package dash

import (
	"context"
	"maps"
	"math"
	"net/http"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"sensei/internal/ingest"
	"sensei/internal/origin"
	"sensei/internal/trace"
	"sensei/internal/vclock"
	"sensei/internal/video"
	"sensei/internal/wire"
)

// TestRatingRoundTripAllocBudget pins what one rating costs the client and
// the origin together, as a fleet's clients reach it: a typed Call on the
// client's goroutine. It counts the body's encoding, the origin's parse
// and ingest fold, its reply, and the reply's parse.
func TestRatingRoundTripAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const budget = 0 // 0 measured (2 while the reply's video and the request's session ID were copied, 3 while the reply's status was too; 22 over an http.RoundTripper, 27 and 29.7 over the coroutine transport)
	v := testVideo(t)
	o, err := origin.New(origin.Config{
		Catalog:      []*video.Video{v},
		Profile:      func(v *video.Video) ([]float64, error) { return v.TrueSensitivity(), nil },
		Traces:       map[string]*trace.Trace{"flat": {Name: "flat", BitsPerSecond: []float64{4e6}}},
		DefaultTrace: "flat",
		TimeScale:    1,
		// Never enough evidence to re-profile: the epoch holds still.
		Ingest: &ingest.Config{MinSamples: math.MaxInt32},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	c := &Client{Caller: o}
	ctx := context.Background()
	if err := c.Join(ctx, v.Name); err != nil {
		t.Fatal(err)
	}
	// GET /weights profiles the video, so ratings are folded in.
	var a wire.Answer
	if err := o.Call(ctx, &wire.Call{Route: wire.RouteWeights, SID: c.sid}, &a); err != nil || a.Status != http.StatusOK {
		t.Fatalf("weights: status %d, %v", a.Status, err)
	}
	prof, err := parseWeights(a.Body, v)
	if err != nil {
		t.Fatal(err)
	}
	// One rating through the session machine and its driver: the rating
	// step's POST, done and completed, and nothing after it.
	c.Rater = &fixedRater{score: 4}
	s := &c.s
	s.sess, s.prof = &Session{}, prof
	rate := func() {
		accepted := s.sess.RatingsAccepted
		s.i, s.step = 0, stepRate
		o, _ := s.next(0)
		r := c.do(ctx, &s.req.call)
		s.complete(0, &r)
		// Accepted on the first attempt: no retry pause pending, no request
		// left in flight, no error, one more accepted rating.
		if o.call.Route != wire.RouteRating || s.err != nil || s.sleeping || s.req.call.Route != 0 || s.sess.RatingsAccepted != accepted+1 {
			t.Fatalf("rating: route %d status %d, accepted %d -> %d, sleeping=%v, in flight %d: %v",
				o.call.Route, r.status, accepted, s.sess.RatingsAccepted, s.sleeping, s.req.call.Route, s.err)
		}
	}
	rate()
	allocs := testing.AllocsPerRun(200, rate)
	t.Logf("%.2f allocations per rating (budget %v)", allocs, budget)
	if allocs > budget {
		t.Fatalf("%.2f allocations per rating exceeds the budget of %v", allocs, budget)
	}
}

// TestSessionBuffersArePooled runs two sessions back to back through the
// origin's Call, each on a fresh client, on one pooled buffer set: the
// second client takes the set the first gave back when it left and grows
// neither buffer, and the first session's outcome still equals a copy
// taken when it returned, so nothing it keeps aliases the set the second
// session's replies overwrote. A warm session then allocates at least the
// set's holder and its growth (the join body, at least one reply) fewer
// objects than one handed an empty set.
func TestSessionBuffersArePooled(t *testing.T) {
	soccer := testVideo(t)
	full, err := video.ByName("Tank")
	if err != nil {
		t.Fatal(err)
	}
	tank, err := full.Excerpt(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	clock := vclock.NewVirtual()
	o, err := origin.New(origin.Config{
		Catalog:      []*video.Video{soccer, tank},
		Profile:      func(v *video.Video) ([]float64, error) { return v.TrueSensitivity(), nil },
		Traces:       map[string]*trace.Trace{"flat": {Name: "flat", BitsPerSecond: []float64{4e6}}},
		DefaultTrace: "flat",
		TimeScale:    1,
		Clock:        clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	clock.Enter()
	defer clock.Exit()
	// On one P with the collector off, the pool hands each Get the set the
	// last Put gave back.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ctx := context.Background()
	// stream plays v on a fresh client and leaves, returning the session
	// and the buffer set the client held; set, when not nil, is handed to
	// the client in place of a pooled one.
	stream := func(v *video.Video, set *buffers) (*Session, *buffers) {
		c := &Client{Caller: o, Algorithm: rung0ABR(), Clock: clock, pooled: set}
		sess, err := c.Stream(ctx, v)
		if err != nil {
			t.Fatal(err)
		}
		held := c.pooled
		if err := c.Leave(ctx); err != nil {
			t.Fatal(err)
		}
		if c.pooled != nil || c.body != nil || c.answer.Body != nil {
			t.Fatal("a client that left still holds its buffers")
		}
		return sess, held
	}

	first, set := stream(soccer, nil)
	kept := cloneSession(first)
	body, reply := unsafe.SliceData(set.body), unsafe.SliceData(set.reply)
	second, held := stream(tank, nil)
	// The race detector drops a share of a pool's Puts, so the second
	// client may start from an empty set.
	if !raceEnabled {
		if held != set {
			t.Fatal("the second client did not take the set the first gave back")
		}
		if unsafe.SliceData(set.body) != body || unsafe.SliceData(set.reply) != reply {
			t.Fatalf("the second session grew a buffer: body cap %d, reply cap %d", cap(set.body), cap(set.reply))
		}
	}
	if !reflect.DeepEqual(first, kept) {
		t.Fatalf("the first session changed after the second ran:\n got %+v\nwant %+v", first, kept)
	}
	if second.ID == first.ID || slices.Equal(second.Weights, first.Weights) {
		t.Fatal("the two sessions' replies did not differ")
	}

	if raceEnabled {
		return // allocation counts are meaningless under the race detector
	}
	warm := testing.AllocsPerRun(5, func() { stream(tank, nil) })
	cold := testing.AllocsPerRun(5, func() { stream(tank, new(buffers)) })
	t.Logf("%.0f allocations per warm session, %.0f per session from an empty set", warm, cold)
	if cold-warm < 3 {
		t.Fatalf("a warm session allocates %.0f objects, one from an empty set %.0f: the buffers were not reused", warm, cold)
	}
}

// cloneSession copies s, sharing nothing with it but the video.
func cloneSession(s *Session) *Session {
	c := *s
	c.ID = strings.Clone(s.ID)
	c.Weights = slices.Clone(s.Weights)
	c.ChunkEpochs = slices.Clone(s.ChunkEpochs)
	c.ThroughputBps = slices.Clone(s.ThroughputBps)
	r := *s.Rendering
	r.Rungs, r.StallSec = slices.Clone(r.Rungs), slices.Clone(r.StallSec)
	c.Rendering = &r
	c.Resilience.FaultsByKind = maps.Clone(s.Resilience.FaultsByKind)
	return &c
}
