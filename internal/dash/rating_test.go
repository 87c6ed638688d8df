package dash

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"sensei/internal/chaos"
	"sensei/internal/par"
	"sensei/internal/player"
	"sensei/internal/qoe"
	"sensei/internal/video"
	"sensei/internal/wire"
)

// fixedRater rates every chunk the same score; skipEvery>0 skips every
// n-th chunk (a distracted user).
type fixedRater struct {
	score     int
	skipEvery int
	calls     int
}

func (f *fixedRater) RateChunk(r *qoe.Rendering, i int) (int, bool) {
	f.calls++
	if f.skipEvery > 0 && (i+1)%f.skipEvery == 0 {
		return 0, false
	}
	return f.score, true
}

// ratingStub is a minimal origin speaking the feedback-loop protocol: a
// fixed-epoch weight plane plus POST /rating with scripted verdicts.
type ratingStub struct {
	v *video.Video
	w []float64

	mu       sync.Mutex
	epoch    uint64 // current epoch advertised everywhere
	ratings  []wire.RatingRequest
	beacon   uint64 // epoch stamped on rating responses (0 = use epoch)
	failWith int    // non-zero: /rating answers this HTTP status
}

func (s *ratingStub) start(t *testing.T) string {
	t.Helper()
	mpd, err := wire.BuildMPDProfile(s.v, s.w, 1)
	if err != nil {
		t.Fatal(err)
	}
	manifest := mpd.AppendMPD(nil)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /session", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"session_id":"stub","video":%q,"trace":"flat","timescale":100}`, s.v.Name)
	})
	mux.HandleFunc("DELETE /session/{id}", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /v/{video}/manifest.mpd", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/dash+xml")
		w.Header().Set(wire.WeightEpochHeader, "1")
		_, _ = w.Write(manifest)
	})
	mux.HandleFunc("GET /v/{video}/segment/{chunk}/{rung}", func(w http.ResponseWriter, r *http.Request) {
		chunk, _ := strconv.Atoi(r.PathValue("chunk"))
		rung, _ := strconv.Atoi(r.PathValue("rung"))
		if chunk < 0 || chunk >= s.v.NumChunks() || rung < 0 || rung >= len(s.v.Ladder) {
			http.Error(w, "out of range", http.StatusNotFound)
			return
		}
		s.mu.Lock()
		epoch := s.epoch
		s.mu.Unlock()
		size := int(s.v.ChunkSizeBits(chunk, rung) / 8)
		w.Header().Set(wire.WeightEpochHeader, strconv.FormatUint(epoch, 10))
		w.Header().Set("Content-Length", strconv.Itoa(size))
		_, _ = w.Write(make([]byte, size))
	})
	mux.HandleFunc("GET /weights", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		epoch := s.epoch
		s.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(wire.WeightEpochHeader, strconv.FormatUint(epoch, 10))
		_ = json.NewEncoder(w).Encode(wire.WeightsResponse{Video: s.v.Name, Epoch: epoch, Weights: s.w})
	})
	mux.HandleFunc("POST /rating", func(w http.ResponseWriter, r *http.Request) {
		var req wire.RatingRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.mu.Lock()
		s.ratings = append(s.ratings, req)
		epoch := s.epoch
		beacon := s.beacon
		fail := s.failWith
		s.mu.Unlock()
		if fail != 0 {
			http.Error(w, "scripted failure", fail)
			return
		}
		if beacon == 0 {
			beacon = epoch
		}
		status := wire.StatusAccepted
		if req.Epoch != epoch {
			status = wire.StatusQuarantined
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(wire.WeightEpochHeader, strconv.FormatUint(beacon, 10))
		_ = json.NewEncoder(w).Encode(wire.RatingResponse{Video: s.v.Name, Chunk: req.Chunk, Status: status, Epoch: beacon})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv.URL
}

func ratingTestVideo(t *testing.T) ([]float64, *video.Video) {
	t.Helper()
	full, err := video.ByName("Soccer1")
	if err != nil {
		t.Fatal(err)
	}
	v, err := full.Excerpt(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	return v.TrueSensitivity(), v
}

// TestClientPostsRatings: one rating per rendered chunk, stamped with the
// decision's epoch, all accepted, and the ledger on the session adds up.
func TestClientPostsRatings(t *testing.T) {
	w, v := ratingTestVideo(t)
	stub := &ratingStub{v: v, w: w, epoch: 1}
	base := stub.start(t)
	rater := &fixedRater{score: 4}
	c := &Client{BaseURL: base, Algorithm: rung0ABR(), TimeScale: 100, Rater: rater}
	sess, err := c.Stream(context.Background(), v)
	if err != nil {
		t.Fatal(err)
	}
	n := v.NumChunks()
	if rater.calls != n {
		t.Fatalf("rater asked %d times for %d chunks", rater.calls, n)
	}
	if sess.RatingsPosted != n || sess.RatingsAccepted != n || sess.RatingsQuarantined != 0 {
		t.Fatalf("ledger %d/%d/%d", sess.RatingsPosted, sess.RatingsAccepted, sess.RatingsQuarantined)
	}
	if len(stub.ratings) != n {
		t.Fatalf("stub saw %d ratings", len(stub.ratings))
	}
	for i, r := range stub.ratings {
		if r.SessionID != "stub" || r.Chunk != i || r.Epoch != 1 || r.Rating != 4 {
			t.Fatalf("rating %d: %+v", i, r)
		}
	}
}

// TestClientRaterSkips: a rater declining a chunk posts nothing for it.
func TestClientRaterSkips(t *testing.T) {
	w, v := ratingTestVideo(t)
	stub := &ratingStub{v: v, w: w, epoch: 1}
	base := stub.start(t)
	c := &Client{BaseURL: base, Algorithm: rung0ABR(), TimeScale: 100,
		Rater: &fixedRater{score: 3, skipEvery: 2}}
	sess, err := c.Stream(context.Background(), v)
	if err != nil {
		t.Fatal(err)
	}
	want := v.NumChunks() / 2
	if sess.RatingsPosted != want || len(stub.ratings) != want {
		t.Fatalf("posted %d (stub saw %d), want %d", sess.RatingsPosted, len(stub.ratings), want)
	}
}

// TestClientRatingBeaconTriggersRefresh: the rating response's epoch header
// is a staleness beacon like a segment response's — a newer epoch there
// alone must make the client re-fetch /weights before its next decision.
func TestClientRatingBeaconTriggersRefresh(t *testing.T) {
	w, v := ratingTestVideo(t)
	// Segments keep advertising epoch 1; only rating responses beacon 2.
	stub := &ratingStub{v: v, w: w, epoch: 1, beacon: 2}
	base := stub.start(t)
	c := &Client{BaseURL: base, Algorithm: rung0ABR(), TimeScale: 100,
		Rater: &fixedRater{score: 5}}
	sess, err := c.Stream(context.Background(), v)
	if err != nil {
		t.Fatal(err)
	}
	if sess.WeightRefreshes < 1 {
		t.Fatalf("beacon on rating responses triggered no /weights re-fetch: %+v", sess)
	}
	// /weights still serves epoch 1 (< the beacon), so only one fetch per
	// advertised bump — not one per chunk.
	if sess.WeightRefreshes != 1 {
		t.Fatalf("%d re-fetches for one advertised bump (polling)", sess.WeightRefreshes)
	}
}

// TestClientRatingQuarantinedMidFlip: an epoch flip between a chunk's
// decision and its rating makes that rating quarantined, and the client
// counts it honestly.
func TestClientRatingQuarantinedMidFlip(t *testing.T) {
	w, v := ratingTestVideo(t)
	stub := &ratingStub{v: v, w: w, epoch: 1}
	base := stub.start(t)
	flipAt := 2
	rater := raterFunc(func(r *qoe.Rendering, i int) (int, bool) {
		if i == flipAt {
			// The flip lands after chunk i's decision (stamped epoch 1) but
			// before its rating is posted.
			stub.mu.Lock()
			stub.epoch = 2
			stub.mu.Unlock()
		}
		return 4, true
	})
	c := &Client{BaseURL: base, Algorithm: rung0ABR(), TimeScale: 100, Rater: rater}
	sess, err := c.Stream(context.Background(), v)
	if err != nil {
		t.Fatal(err)
	}
	if sess.RatingsQuarantined != 1 {
		t.Fatalf("quarantined %d, want exactly the flip chunk's rating", sess.RatingsQuarantined)
	}
	if sess.RatingsPosted != sess.RatingsAccepted+sess.RatingsQuarantined {
		t.Fatalf("ledger does not add up: %+v", sess)
	}
	// The rating response's beacon carried epoch 2, so the next decision
	// adopted it and later ratings were accepted again.
	if sess.WeightEpoch != 2 {
		t.Fatalf("client never adopted the flip: epoch %d", sess.WeightEpoch)
	}
}

// raterFunc adapts a function to the Rater interface.
type raterFunc func(r *qoe.Rendering, i int) (int, bool)

func (f raterFunc) RateChunk(r *qoe.Rendering, i int) (int, bool) { return f(r, i) }

// TestClientRatingFailureIsCounted: a failing /rating no longer tears
// playback down — past the retry budget the rating is dropped, and the
// drop is ledgered (never silent) so reconciliation still accounts for it.
func TestClientRatingFailureIsCounted(t *testing.T) {
	w, v := ratingTestVideo(t)
	stub := &ratingStub{v: v, w: w, epoch: 1, failWith: http.StatusServiceUnavailable}
	base := stub.start(t)
	c := &Client{BaseURL: base, Algorithm: rung0ABR(), TimeScale: 100,
		Retry: par.Backoff{Attempts: 1, Base: time.Millisecond, Max: 2 * time.Millisecond},
		Rater: &fixedRater{score: 4}}
	sess, err := c.Stream(context.Background(), v)
	if err != nil {
		t.Fatalf("stream died over a failing rating endpoint: %v", err)
	}
	n := int64(v.NumChunks())
	if sess.RatingsPosted != 0 {
		t.Fatalf("posted %d ratings against an always-failing endpoint", sess.RatingsPosted)
	}
	if sess.Resilience.RatingsDropped != n {
		t.Fatalf("RatingsDropped = %d, want one per chunk (%d)", sess.Resilience.RatingsDropped, n)
	}
	// Budget 1 → 2 attempts per chunk, each a counted fault.
	if got := sess.Resilience.FaultsByKind[string(chaos.KindRating)]; got != 2*n {
		t.Fatalf("rating faults = %d, want %d", got, 2*n)
	}
	// A permanent (4xx) rating failure, by contrast, still aborts loudly.
	stub.mu.Lock()
	stub.failWith = http.StatusBadRequest
	stub.mu.Unlock()
	c2 := &Client{BaseURL: base, Algorithm: rung0ABR(), TimeScale: 100,
		Rater: &fixedRater{score: 4}}
	if _, err := c2.Stream(context.Background(), v); err == nil {
		t.Fatal("stream survived a 4xx rating endpoint")
	}
}

// rung0ABR always picks the bottom rung — the cheapest deterministic
// algorithm for wire-protocol tests.
func rung0ABR() player.Algorithm {
	return scriptedABR{decide: func(*player.State) player.Decision { return player.Decision{Rung: 0} }}
}
