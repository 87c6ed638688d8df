package dash

import (
	"context"
	"errors"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"sensei/internal/origin"
	"sensei/internal/par"
	"sensei/internal/trace"
	"sensei/internal/vclock"
	"sensei/internal/video"
)

// refusingTransport fails every request it is handed, counting them.
type refusingTransport struct{ n atomic.Int64 }

func (t *refusingTransport) RoundTrip(*http.Request) (*http.Response, error) {
	t.n.Add(1)
	return nil, errors.New("no socket here")
}

// TestCallerTakesPriority: a client with Caller set reaches the origin only
// through it. Its BaseURL names no host, its HTTP client refuses every
// request and its RequestTimeout would expire any request at once, yet it
// joins, streams every chunk and leaves, and the origin's ledger agrees.
func TestCallerTakesPriority(t *testing.T) {
	v := testVideo(t)
	clock := vclock.NewVirtual()
	o, err := origin.New(origin.Config{
		Catalog:      []*video.Video{v},
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
	refused := &refusingTransport{}
	c := &Client{
		BaseURL:        "http://unroutable.invalid",
		HTTP:           &http.Client{Transport: refused},
		RequestTimeout: time.Nanosecond,
		Caller:         o,
		Algorithm:      rung0ABR(),
		Retry:          par.Backoff{Attempts: -1}, // the first failure is final
		Clock:          clock,
	}
	clock.Enter()
	defer clock.Exit()
	ctx := context.Background()
	sess, err := c.Stream(ctx, v)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Leave(ctx); err != nil {
		t.Fatal(err)
	}
	if n := refused.n.Load(); n != 0 {
		t.Fatalf("%d requests went to the HTTP client", n)
	}
	st := o.Stats()
	if len(sess.Rendering.Rungs) != v.NumChunks() || st.SessionsCreated != 1 || st.SessionsClosed != 1 ||
		st.SegmentsServed != int64(v.NumChunks()) || st.BytesServed != sess.BytesDownloaded {
		t.Fatalf("streamed %d of %d chunks, %d bytes; origin: %d joined, %d left, %d segments, %d bytes",
			len(sess.Rendering.Rungs), v.NumChunks(), sess.BytesDownloaded,
			st.SessionsCreated, st.SessionsClosed, st.SegmentsServed, st.BytesServed)
	}
}
