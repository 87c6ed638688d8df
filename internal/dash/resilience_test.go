package dash

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sensei/internal/chaos"
	"sensei/internal/par"
	"sensei/internal/player"
	"sensei/internal/wire"
)

// fastRetry keeps resilience tests quick: real backoff shape, tiny delays.
func fastRetry(attempts int) par.Backoff {
	return par.Backoff{Attempts: attempts, Base: time.Millisecond, Max: 2 * time.Millisecond}
}

// TestClientLeaveAlways409Bounded is the satellite regression for the
// once-unbounded DELETE /session conflict loop: an origin wedged in
// "draining" forever must exhaust the drain budget and error out, not hang
// teardown until the context dies.
func TestClientLeaveAlways409Bounded(t *testing.T) {
	var deletes atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /session", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"session_id":"stub","video":"X","trace":"flat","timescale":1}`)
	})
	mux.HandleFunc("DELETE /session/{id}", func(w http.ResponseWriter, r *http.Request) {
		deletes.Add(1)
		http.Error(w, "stream draining", http.StatusConflict)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	c := &Client{BaseURL: srv.URL, Retry: fastRetry(2)}
	if err := c.Join(context.Background(), "X"); err != nil {
		t.Fatal(err)
	}
	err := c.Leave(context.Background())
	if err == nil {
		t.Fatal("Leave returned nil against an always-409 origin")
	}
	if !strings.Contains(err.Error(), "still draining") {
		t.Fatalf("unexpected error: %v", err)
	}
	if got := deletes.Load(); got != leaveDrainRetries+1 {
		t.Fatalf("%d DELETE attempts, want exactly %d (drain budget + 1)", got, leaveDrainRetries+1)
	}
	// 409s are protocol drain, not wire faults.
	if res := c.Resilience(); res.FaultsByKind[string(chaos.KindSession)] != 0 {
		t.Fatalf("conflicts were counted as faults: %+v", res)
	}
}

// TestClientLeaveRetriesServerErrors: transport-level 5xx replies on
// DELETE get the standard retry budget and are ledgered as session faults.
func TestClientLeaveRetriesServerErrors(t *testing.T) {
	var deletes atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /session", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"session_id":"stub","video":"X","trace":"flat","timescale":1}`)
	})
	mux.HandleFunc("DELETE /session/{id}", func(w http.ResponseWriter, r *http.Request) {
		if deletes.Add(1) <= 2 {
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	c := &Client{BaseURL: srv.URL, Retry: fastRetry(3)}
	if err := c.Join(context.Background(), "X"); err != nil {
		t.Fatal(err)
	}
	if err := c.Leave(context.Background()); err != nil {
		t.Fatalf("Leave did not survive two 503s: %v", err)
	}
	if got := deletes.Load(); got != 3 {
		t.Fatalf("%d DELETE attempts, want 3", got)
	}
	if res := c.Resilience(); res.FaultsByKind[string(chaos.KindSession)] != 2 {
		t.Fatalf("session faults = %d, want 2 (%+v)", res.FaultsByKind[string(chaos.KindSession)], res)
	}
}

// TestClientJoinRetriesTransientFailures: POST /session 503s are retried
// within the budget and counted; a session still forms.
func TestClientJoinRetriesTransientFailures(t *testing.T) {
	var joins atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /session", func(w http.ResponseWriter, r *http.Request) {
		if joins.Add(1) <= 2 {
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"session_id":"stub","video":"X","trace":"flat","timescale":1}`)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	c := &Client{BaseURL: srv.URL, Retry: fastRetry(3)}
	if err := c.Join(context.Background(), "X"); err != nil {
		t.Fatal(err)
	}
	res := c.Resilience()
	if res.FaultsByKind[string(chaos.KindSession)] != 2 || res.Retries != 2 {
		t.Fatalf("ledger after two transient join failures: %+v", res)
	}

	// An exhausted budget is an error — there is no rung below "no session".
	joins.Store(0)
	c2 := &Client{BaseURL: srv.URL, Retry: fastRetry(1)}
	if err := c2.Join(context.Background(), "X"); err == nil || !strings.Contains(err.Error(), "retry budget exhausted") {
		t.Fatalf("want budget-exhausted error, got %v", err)
	}
}

// TestClientRejectsTruncatedSegment is the Content-Length accounting
// satellite: a segment reply that dies mid-body must be retried as a
// fault — its partial payload ledgered as bytes but never as a throughput
// sample — instead of entering ABR history as a fake-fast download.
func TestClientRejectsTruncatedSegment(t *testing.T) {
	v := testVideo(t)
	var truncated atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /session", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"session_id":"stub","video":%q,"trace":"flat","timescale":100}`, v.Name)
	})
	mpd, err := wire.BuildMPD(v, nil)
	if err != nil {
		t.Fatal(err)
	}
	manifest, err := mpd.Encode()
	if err != nil {
		t.Fatal(err)
	}
	mux.HandleFunc("GET /v/{video}/manifest.mpd", func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(manifest)
	})
	half := 0
	mux.HandleFunc("GET /v/{video}/segment/{chunk}/{rung}", func(w http.ResponseWriter, r *http.Request) {
		chunk, _ := strconv.Atoi(r.PathValue("chunk"))
		rung, _ := strconv.Atoi(r.PathValue("rung"))
		size := int(v.ChunkSizeBits(chunk, rung) / 8)
		if chunk == 0 && truncated.Add(1) == 1 {
			// Declare the full length, deliver half, hang up.
			half = size / 2
			w.Header().Set("Content-Length", strconv.Itoa(size))
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(make([]byte, half))
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		}
		_, _ = w.Write(make([]byte, size))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	c := &Client{BaseURL: srv.URL, Algorithm: rung0ABR(), TimeScale: 100, Retry: fastRetry(2)}
	sess, err := c.Stream(context.Background(), v)
	if err != nil {
		t.Fatalf("stream did not survive one truncated segment: %v", err)
	}
	if sess.Resilience.Truncations != 1 {
		t.Fatalf("Truncations = %d, want 1", sess.Resilience.Truncations)
	}
	if sess.Resilience.FaultsByKind[string(chaos.KindSegment)] != 1 {
		t.Fatalf("segment faults: %+v", sess.Resilience)
	}
	// The partial payload is real traffic (both sides count it) …
	var full int64
	for i := 0; i < v.NumChunks(); i++ {
		full += int64(v.ChunkSizeBits(i, 0) / 8)
	}
	if sess.BytesDownloaded != full+int64(half) {
		t.Fatalf("BytesDownloaded = %d, want %d complete + %d partial", sess.BytesDownloaded, full, half)
	}
	// … but never a throughput sample: one sample per chunk, all from
	// complete downloads of the expected size.
	if len(sess.ThroughputBps) != v.NumChunks() {
		t.Fatalf("%d throughput samples for %d chunks", len(sess.ThroughputBps), v.NumChunks())
	}
}

// TestClientRejectsWrongSizeSegment: a clean reply whose body disagrees
// with the local video model's expected chunk size is a fault, not a
// download.
func TestClientRejectsWrongSizeSegment(t *testing.T) {
	v := testVideo(t)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /session", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"session_id":"stub","video":%q,"trace":"flat","timescale":100}`, v.Name)
	})
	mpd, err := wire.BuildMPD(v, nil)
	if err != nil {
		t.Fatal(err)
	}
	manifest, err := mpd.Encode()
	if err != nil {
		t.Fatal(err)
	}
	mux.HandleFunc("GET /v/{video}/manifest.mpd", func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(manifest)
	})
	mux.HandleFunc("GET /v/{video}/segment/{chunk}/{rung}", func(w http.ResponseWriter, r *http.Request) {
		// Every segment arrives 100 bytes short, with a Content-Length that
		// matches the short body — only the expected-size check can catch it.
		chunk, _ := strconv.Atoi(r.PathValue("chunk"))
		rung, _ := strconv.Atoi(r.PathValue("rung"))
		_, _ = w.Write(make([]byte, int(v.ChunkSizeBits(chunk, rung)/8)-100))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	c := &Client{BaseURL: srv.URL, Algorithm: rung0ABR(), TimeScale: 100, Retry: fastRetry(-1)}
	_, err = c.Stream(context.Background(), v)
	if err == nil || !strings.Contains(err.Error(), "expected") {
		t.Fatalf("want an expected-size error, got %v", err)
	}
	if res := c.Resilience(); res.Truncations == 0 {
		t.Fatalf("short body not ledgered as truncation: %+v", res)
	}
}

// TestClientSegmentFallbackLadder: when a segment's retry budget is
// exhausted at the chosen rung, the client re-decides at the lowest rung
// before declaring a stall — and only errors if even that fails.
func TestClientSegmentFallbackLadder(t *testing.T) {
	v := testVideo(t)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /session", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"session_id":"stub","video":%q,"trace":"flat","timescale":100}`, v.Name)
	})
	mpd, err := wire.BuildMPD(v, nil)
	if err != nil {
		t.Fatal(err)
	}
	manifest, err := mpd.Encode()
	if err != nil {
		t.Fatal(err)
	}
	mux.HandleFunc("GET /v/{video}/manifest.mpd", func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(manifest)
	})
	mux.HandleFunc("GET /v/{video}/segment/{chunk}/{rung}", func(w http.ResponseWriter, r *http.Request) {
		chunk, _ := strconv.Atoi(r.PathValue("chunk"))
		rung, _ := strconv.Atoi(r.PathValue("rung"))
		if rung != 0 {
			// Big segments never make it through this wire.
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
			return
		}
		_, _ = w.Write(make([]byte, int(v.ChunkSizeBits(chunk, rung)/8)))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	top := len(v.Ladder) - 1
	c := &Client{
		BaseURL: srv.URL, TimeScale: 100, Retry: fastRetry(-1),
		Algorithm: scriptedABR{decide: func(*player.State) player.Decision {
			return player.Decision{Rung: top}
		}},
	}
	sess, err := c.Stream(context.Background(), v)
	if err != nil {
		t.Fatalf("ladder did not save the stream: %v", err)
	}
	n := v.NumChunks()
	if got := sess.Resilience.SegmentFallbacks; got != int64(n) {
		t.Fatalf("SegmentFallbacks = %d, want one per chunk (%d)", got, n)
	}
	for i, rung := range sess.Rendering.Rungs {
		if rung != 0 {
			t.Fatalf("chunk %d delivered at rung %d, want the fallback rung 0", i, rung)
		}
	}
}

// TestClientStaleWeightsDegradation: an unreachable weight service past
// the retry budget must not tear playback down — the session continues on
// its last adopted epoch snapshot and the drop is counted.
func TestClientStaleWeightsDegradation(t *testing.T) {
	v := testVideo(t)
	weights := make([]float64, v.NumChunks())
	for i := range weights {
		weights[i] = 1
	}
	mpd, err := wire.BuildMPDProfile(v, weights, 1)
	if err != nil {
		t.Fatal(err)
	}
	manifest, err := mpd.Encode()
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /session", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"session_id":"stub","video":%q,"trace":"flat","timescale":100}`, v.Name)
	})
	mux.HandleFunc("GET /v/{video}/manifest.mpd", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(wire.WeightEpochHeader, "1")
		_, _ = w.Write(manifest)
	})
	mux.HandleFunc("GET /v/{video}/segment/{chunk}/{rung}", func(w http.ResponseWriter, r *http.Request) {
		chunk, _ := strconv.Atoi(r.PathValue("chunk"))
		rung, _ := strconv.Atoi(r.PathValue("rung"))
		// The epoch beacon advertises a refresh after the first chunk …
		if chunk >= 1 {
			w.Header().Set(wire.WeightEpochHeader, "2")
		} else {
			w.Header().Set(wire.WeightEpochHeader, "1")
		}
		_, _ = w.Write(make([]byte, int(v.ChunkSizeBits(chunk, rung)/8)))
	})
	mux.HandleFunc("GET /weights", func(w http.ResponseWriter, r *http.Request) {
		// … but the weight service is down for the count.
		http.Error(w, "weight service unavailable", http.StatusServiceUnavailable)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	c := &Client{BaseURL: srv.URL, Algorithm: rung0ABR(), TimeScale: 100, Retry: fastRetry(1)}
	sess, err := c.Stream(context.Background(), v)
	if err != nil {
		t.Fatalf("stream died over an unreachable weight service: %v", err)
	}
	if sess.WeightEpoch != 1 {
		t.Fatalf("session ended at epoch %d, want the last adopted snapshot (1)", sess.WeightEpoch)
	}
	if sess.WeightRefreshes != 0 {
		t.Fatalf("WeightRefreshes = %d against a dead weight service", sess.WeightRefreshes)
	}
	if sess.Resilience.StaleWeightsKept != 1 {
		t.Fatalf("StaleWeightsKept = %d, want 1", sess.Resilience.StaleWeightsKept)
	}
	// Budget 1 → 2 attempts, both counted as weights faults.
	if got := sess.Resilience.FaultsByKind[string(chaos.KindWeights)]; got != 2 {
		t.Fatalf("weights faults = %d, want 2", got)
	}
	// Every decision ran on the epoch-1 snapshot, never torn to nil.
	for i, e := range sess.ChunkEpochs {
		if e != 1 {
			t.Fatalf("chunk %d decided under epoch %d, want 1", i, e)
		}
	}
}
