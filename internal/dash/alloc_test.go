package dash

import (
	"context"
	"math"
	"net/http"
	"testing"

	"sensei/internal/ingest"
	"sensei/internal/inproc"
	"sensei/internal/origin"
	"sensei/internal/trace"
	"sensei/internal/video"
)

// TestRatingRoundTripAllocBudget pins what one rating costs the client and
// the origin together, over the in-process transport a fleet uses: the
// body's encoding, the POST through net/http's client, the origin's parse
// and ingest fold, its reply, and the reply's parse.
func TestRatingRoundTripAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const budget = 29.7 // 27 measured, plus 10 %
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
	tr := &inproc.Transport{Handler: o}
	defer tr.CloseIdleConnections()
	c := &Client{BaseURL: "http://origin.inproc", HTTP: &http.Client{Transport: tr}}
	ctx := context.Background()
	if err := c.Join(ctx, v.Name); err != nil {
		t.Fatal(err)
	}
	prof, err := c.fetchWeights(ctx, v) // profiles the video, so ratings are folded in
	if err != nil {
		t.Fatal(err)
	}
	rate := func() {
		if accepted, _, err := c.postRating(ctx, 0, prof.Epoch, 4); err != nil || !accepted {
			t.Fatalf("rating: accepted=%v, %v", accepted, err)
		}
	}
	rate()
	allocs := testing.AllocsPerRun(200, rate)
	t.Logf("%.2f allocations per rating (budget %v)", allocs, budget)
	if allocs > budget {
		t.Fatalf("%.2f allocations per rating exceeds the budget of %v", allocs, budget)
	}
}
