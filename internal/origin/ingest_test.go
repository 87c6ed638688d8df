package origin

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"sensei/internal/ingest"
	"sensei/internal/video"
	"sensei/internal/wire"
)

// ingestOrigin starts an origin with the closed loop enabled and aggressive
// autopilot tuning, returning the origin, its base URL and the test video.
func ingestOrigin(t *testing.T, mutate func(*ingest.Config)) (*Origin, string, *video.Video) {
	t.Helper()
	v := excerptOf(t, "Soccer1", 8)
	icfg := ingest.Config{
		WindowChunks:   4,
		MinSamples:     6,
		MinInterval:    time.Millisecond,
		MinWeightDelta: 0.05,
		Gain:           2,
		DecayHalfLife:  time.Hour,
	}
	if mutate != nil {
		mutate(&icfg)
	}
	o, err := New(Config{
		Catalog:      []*video.Video{v},
		Profile:      trueSensitivityProfile,
		Traces:       flatTraces(map[string]float64{"wire": 1e9}),
		DefaultTrace: "wire",
		TimeScale:    0.001,
		Ingest:       &icfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(o)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return o, "http://" + addr, v
}

// postRating posts one rating over the wire and returns the HTTP status,
// decoded response and the epoch header.
func postRating(t *testing.T, base string, req wire.RatingRequest) (int, wire.RatingResponse, uint64) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/rating", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rr wire.RatingResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatal(err)
		}
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	var epoch uint64
	fmt.Sscanf(resp.Header.Get(wire.WeightEpochHeader), "%d", &epoch)
	return resp.StatusCode, rr, epoch
}

// TestOriginRatingEndpoint covers the wire contract: accept, quarantine,
// the current-epoch beacon, bad sessions and malformed ratings, and the
// /stats ledger.
func TestOriginRatingEndpoint(t *testing.T) {
	o, base, v := ingestOrigin(t, func(c *ingest.Config) {
		c.MinWeightDelta = 1e9 // gate never passes; this test is about the wire
	})
	sid := joinSession(t, base, v.Name)

	// The video is cold until its manifest is requested: every rating
	// quarantines against epoch 0.
	status, rr, _ := postRating(t, base, wire.RatingRequest{SessionID: sid, Chunk: 0, Epoch: 1, Rating: 5})
	if status != http.StatusOK || rr.Status != "quarantined" {
		t.Fatalf("cold-video rating: status %d %+v", status, rr)
	}

	// Warm the profile (epoch 1), then a correctly stamped rating accepts
	// and the response carries the current-epoch beacon.
	if _, err := o.store.Get(v); err != nil {
		t.Fatal(err)
	}
	status, rr, epoch := postRating(t, base, wire.RatingRequest{SessionID: sid, Chunk: 3, Epoch: 1, Rating: 4})
	if status != http.StatusOK || rr.Status != "accepted" || rr.Video != v.Name || epoch != 1 || rr.Epoch != 1 {
		t.Fatalf("warm rating: status %d %+v epoch %d", status, rr, epoch)
	}

	// A stale stamp after a refresh quarantines, and the beacon advertises
	// the new epoch.
	if _, err := o.RefreshWeights(v.Name, 0, 4); err != nil {
		t.Fatal(err)
	}
	status, rr, epoch = postRating(t, base, wire.RatingRequest{SessionID: sid, Chunk: 3, Epoch: 1, Rating: 4})
	if status != http.StatusOK || rr.Status != "quarantined" || epoch != 2 || rr.Epoch != 2 {
		t.Fatalf("stale rating: status %d %+v epoch %d", status, rr, epoch)
	}

	// Unknown session → 404; malformed rating → 400.
	if status, _, _ := postRating(t, base, wire.RatingRequest{SessionID: "nope", Chunk: 0, Epoch: 2, Rating: 3}); status != http.StatusNotFound {
		t.Fatalf("unknown session: status %d", status)
	}
	if status, _, _ := postRating(t, base, wire.RatingRequest{SessionID: sid, Chunk: 99, Epoch: 2, Rating: 3}); status != http.StatusBadRequest {
		t.Fatalf("bad chunk: status %d", status)
	}
	if status, _, _ := postRating(t, base, wire.RatingRequest{SessionID: sid, Chunk: 0, Epoch: 2, Rating: 9}); status != http.StatusBadRequest {
		t.Fatalf("bad rating: status %d", status)
	}

	st := o.Stats()
	if st.Ingest == nil {
		t.Fatal("stats missing the ingest ledger")
	}
	want := ingest.Stats{RatingsAccepted: 1, RatingsQuarantined: 2, RatingsRejected: 2}
	if *st.Ingest != want {
		t.Fatalf("ingest ledger %+v, want %+v", *st.Ingest, want)
	}
}

// TestOriginAutonomousRefresh drives the whole loop in-process: contrasting
// ratings accumulate until the autopilot publishes a new epoch with no
// POST /refresh involved.
func TestOriginAutonomousRefresh(t *testing.T) {
	o, base, v := ingestOrigin(t, nil)
	sid := joinSession(t, base, v.Name)
	if _, err := o.store.Get(v); err != nil {
		t.Fatal(err)
	}

	// Window 0 (chunks 0–3) delights, window 1 (chunks 4–7) disappoints.
	for i := 0; i < 8; i++ {
		if status, _, _ := postRating(t, base, wire.RatingRequest{SessionID: sid, Chunk: i % 4, Epoch: 1, Rating: 5}); status != http.StatusOK {
			t.Fatalf("rating %d: status %d", i, status)
		}
		if status, _, _ := postRating(t, base, wire.RatingRequest{SessionID: sid, Chunk: 4 + i%4, Epoch: 1, Rating: 2}); status != http.StatusOK {
			t.Fatalf("rating %d: status %d", i, status)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := o.DrainIngest(ctx); err != nil {
		t.Fatal(err)
	}

	st := o.Stats()
	if st.Ingest.RefreshesApplied < 1 || st.Ingest.RefreshErrors != 0 {
		t.Fatalf("no autonomous refresh landed: %+v", *st.Ingest)
	}
	if st.WeightEpochs[v.Name] < 2 {
		t.Fatalf("epoch did not bump: %v", st.WeightEpochs)
	}
	if st.ProfilesRefreshed != st.Ingest.RefreshesApplied {
		t.Fatalf("unattributable epoch bumps: %d refreshed, %d autonomous",
			st.ProfilesRefreshed, st.Ingest.RefreshesApplied)
	}
}

// TestOriginIngestDisabled pins the gating: no Ingest config → no /rating
// route, no ledger in /stats; ingest without a profile function is
// rejected outright.
func TestOriginIngestDisabled(t *testing.T) {
	v := excerptOf(t, "Soccer1", 6)
	_, base := startOrigin(t, Config{
		Catalog:      []*video.Video{v},
		Profile:      trueSensitivityProfile,
		Traces:       flatTraces(map[string]float64{"wire": 1e9}),
		DefaultTrace: "wire",
		TimeScale:    0.001,
	})
	body, _ := json.Marshal(wire.RatingRequest{SessionID: "x", Chunk: 0, Epoch: 1, Rating: 3})
	resp, err := http.Post(base+"/rating", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("disabled /rating answered %d", resp.StatusCode)
	}

	if _, err := New(Config{
		Catalog:      []*video.Video{v},
		Traces:       flatTraces(map[string]float64{"wire": 1e9}),
		DefaultTrace: "wire",
		Ingest:       &ingest.Config{},
	}); err == nil {
		t.Fatal("ingest without a profile function accepted")
	}
}
