package dash

import (
	"context"
	"io"
	"math"
	"net/http"
	"testing"

	"sensei/internal/ingest"
	"sensei/internal/origin"
	"sensei/internal/trace"
	"sensei/internal/video"
)

// TestRatingRoundTripAllocBudget pins what one rating costs the client and
// the origin together, over origin.RoundTrip as a fleet's clients reach it:
// the body's encoding, the POST through net/http's client, the origin's
// parse and ingest fold, its reply, and the reply's parse.
func TestRatingRoundTripAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const budget = 24.2 // 22 measured, plus 10 % (27 and 29.7 over the coroutine transport)
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
	c := &Client{BaseURL: "http://origin", HTTP: &http.Client{Transport: o}}
	ctx := context.Background()
	if err := c.Join(ctx, v.Name); err != nil {
		t.Fatal(err)
	}
	// GET /weights profiles the video, so ratings are folded in.
	resp, err := c.HTTP.Get(c.BaseURL + "/weights" + c.sidQuery)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	prof, err := parseWeights(body, v)
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
		r := c.do(ctx, &o)
		s.complete(0, &r)
		// Accepted on the first attempt: no retry pause pending, no request
		// left in flight, no error, one more accepted rating.
		if o.method != "POST" || s.err != nil || s.sleeping || s.req.method != "" || s.sess.RatingsAccepted != accepted+1 {
			t.Fatalf("rating: %s status %d, accepted %d -> %d, sleeping=%v, in flight %q: %v",
				o.method, r.status, accepted, s.sess.RatingsAccepted, s.sleeping, s.req.method, s.err)
		}
	}
	rate()
	allocs := testing.AllocsPerRun(200, rate)
	t.Logf("%.2f allocations per rating (budget %v)", allocs, budget)
	if allocs > budget {
		t.Fatalf("%.2f allocations per rating exceeds the budget of %v", allocs, budget)
	}
}
