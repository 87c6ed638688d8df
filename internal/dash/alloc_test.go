package dash

import (
	"context"
	"math"
	"net/http"
	"testing"

	"sensei/internal/ingest"
	"sensei/internal/origin"
	"sensei/internal/trace"
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
