package dash

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"sensei/internal/abr"
	"sensei/internal/player"
	"sensei/internal/video"
	"sensei/internal/wire"
)

// startStubOrigin serves a minimal slice of the origin wire protocol —
// join, manifest, instant (or fixed-delay) segments — so Client.Stream can
// be exercised in-package. The real origin lives in internal/origin, which
// imports this package; importing it back would be a cycle.
func startStubOrigin(t *testing.T, v *video.Video, weights []float64, timeScale float64, segmentDelay time.Duration) string {
	t.Helper()
	mpd, err := wire.BuildMPD(v, weights)
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
		fmt.Fprintf(w, `{"session_id":"stub","video":%q,"trace":"flat","timescale":%g}`, v.Name, timeScale)
	})
	mux.HandleFunc("GET /v/{video}/manifest.mpd", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/dash+xml")
		_, _ = w.Write(manifest)
	})
	mux.HandleFunc("GET /v/{video}/segment/{chunk}/{rung}", func(w http.ResponseWriter, r *http.Request) {
		chunk, err1 := strconv.Atoi(r.PathValue("chunk"))
		rung, err2 := strconv.Atoi(r.PathValue("rung"))
		if err1 != nil || err2 != nil || chunk < 0 || chunk >= v.NumChunks() || rung < 0 || rung >= len(v.Ladder) {
			http.Error(w, "out of range", http.StatusNotFound)
			return
		}
		if segmentDelay > 0 {
			time.Sleep(segmentDelay)
		}
		_, _ = w.Write(make([]byte, int(v.ChunkSizeBits(chunk, rung)/8)))
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv.URL
}

// scriptedABR decides via a closure, for driving exact decision sequences.
type scriptedABR struct {
	decide func(s *player.State) player.Decision
}

func (scriptedABR) Name() string                             { return "scripted" }
func (a scriptedABR) Decide(s *player.State) player.Decision { return a.decide(s) }

// TestClientRejectsNegativePreStall pins the simulator-parity contract:
// player.Play errors on a negative proactive stall (player.go), and the
// client must too instead of silently skipping the action.
func TestClientRejectsNegativePreStall(t *testing.T) {
	v := testVideo(t)
	base := startStubOrigin(t, v, nil, 1, 0)
	c := &Client{
		BaseURL: base,
		Algorithm: scriptedABR{decide: func(s *player.State) player.Decision {
			if s.ChunkIndex == 1 {
				return player.Decision{Rung: 0, PreStallSec: -0.5}
			}
			return player.Decision{Rung: 0}
		}},
	}
	_, err := c.Stream(context.Background(), v)
	if err == nil {
		t.Fatal("negative proactive stall accepted")
	}
	if !strings.Contains(err.Error(), "negative proactive stall") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestClientClampsPreStall asserts the MaxPreStallSec clamp matches the
// simulator's: a 7-second request lands as the configured cap, never more.
func TestClientClampsPreStall(t *testing.T) {
	v := testVideo(t)
	cases := []struct {
		name   string
		maxCfg float64
		want   float64
	}{
		{"default cap", 0, 2}, // player.Config's default
		{"custom cap", 1.5, 1.5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := startStubOrigin(t, v, nil, 1, 0)
			c := &Client{
				BaseURL:        base,
				MaxPreStallSec: tc.maxCfg,
				Algorithm: scriptedABR{decide: func(s *player.State) player.Decision {
					if s.ChunkIndex == 2 {
						return player.Decision{Rung: 0, PreStallSec: 7}
					}
					return player.Decision{Rung: 0}
				}},
			}
			sess, err := c.Stream(context.Background(), v)
			if err != nil {
				t.Fatal(err)
			}
			// Segments arrive instantly, so the only stall on chunk 2 is the
			// clamped proactive one.
			if got := sess.Rendering.StallSec[2]; got != tc.want {
				t.Fatalf("chunk 2 stall %v, want clamped %v", got, tc.want)
			}
			if sess.RebufferVirtualSec != tc.want {
				t.Fatalf("rebuffer ledger %v, want %v", sess.RebufferVirtualSec, tc.want)
			}
		})
	}
}

// TestClientBufferWaitCancelable cancels the stream context during a
// buffer-full pause. The old bare time.Sleep slept the wait out regardless;
// the stream must now return promptly with the context error.
func TestClientBufferWaitCancelable(t *testing.T) {
	v := testVideo(t)
	base := startStubOrigin(t, v, nil, 1, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := &Client{
		BaseURL: base,
		// Timescale 1 and a 5s cap: after chunk 0 the buffer holds 4s, so
		// chunk 1 must wait 3 wall seconds before downloading.
		MaxBufferSec: 5,
		Algorithm:    scriptedABR{decide: func(*player.State) player.Decision { return player.Decision{Rung: 0} }},
	}
	time.AfterFunc(100*time.Millisecond, cancel)
	start := time.Now()
	_, err := c.Stream(ctx, v)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("canceled stream completed")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v; the buffer wait ignored the context", elapsed)
	}
}

// TestClientLeaveRetriesWhileDraining pins Leave's handling of the
// origin's 409: after an aborted download, the origin keeps a session
// in-flight until its handler observes the disconnect, so a prompt DELETE
// conflicts transiently. Leave must retry through the drain instead of
// surfacing a spurious error (and leaking the session until the janitor).
func TestClientLeaveRetriesWhileDraining(t *testing.T) {
	var deletes int
	mux := http.NewServeMux()
	mux.HandleFunc("POST /session", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"session_id":"drain","video":"Soccer1","trace":"flat","timescale":1}`)
	})
	mux.HandleFunc("DELETE /session/{id}", func(w http.ResponseWriter, r *http.Request) {
		deletes++
		if deletes <= 2 {
			http.Error(w, "stream in flight", http.StatusConflict)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	c := &Client{BaseURL: srv.URL}
	if err := c.Join(context.Background(), "Soccer1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Leave(context.Background()); err != nil {
		t.Fatalf("leave did not ride out the drain: %v", err)
	}
	if deletes != 3 {
		t.Fatalf("%d DELETE attempts, want 3", deletes)
	}
	if c.SessionID() != "" {
		t.Fatal("session ID survived leave")
	}

	// A canceled context must still cut the retry loop short.
	if err := c.Join(context.Background(), "Soccer1"); err != nil {
		t.Fatal(err)
	}
	deletes = -1000 // keep conflicting forever
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	if err := c.Leave(ctx); err == nil {
		t.Fatal("leave retried past its context")
	}
}

// TestClientThroughputFloorFeedsHistory streams at an aggressive timescale
// where every segment lands within (virtual) clock resolution and asserts
// the measured samples the ABR history received are floored, finite and
// bounded. It drives both a rate-based and an MPC planner through the
// poisonable path end to end; without the MinDownloadVirtualSec floor the
// samples blow past the bound by orders of magnitude (up to +Inf).
func TestClientThroughputFloorFeedsHistory(t *testing.T) {
	v := testVideo(t)
	// At timescale 100 a local instant segment (well under 100ms of wall
	// clock) measures below one virtual millisecond, so the floor engages
	// on every chunk.
	const scale = 100
	algs := []player.Algorithm{abr.NewRateRule(), abr.NewSenseiFugu()}
	for _, alg := range algs {
		t.Run(alg.Name(), func(t *testing.T) {
			base := startStubOrigin(t, v, v.TrueSensitivity(), scale, 0)
			c := &Client{BaseURL: base, Algorithm: alg}
			sess, err := c.Stream(context.Background(), v)
			if err != nil {
				t.Fatal(err)
			}
			if err := sess.Rendering.Validate(); err != nil {
				t.Fatal(err)
			}
			if len(sess.ThroughputBps) != v.NumChunks() {
				t.Fatalf("%d throughput samples for %d chunks", len(sess.ThroughputBps), v.NumChunks())
			}
			for i, bps := range sess.ThroughputBps {
				if math.IsInf(bps, 0) || math.IsNaN(bps) || bps <= 0 {
					t.Fatalf("chunk %d throughput sample %v poisoned the history", i, bps)
				}
				// The floored maximum for this chunk's actual bytes.
				bound := v.ChunkSizeBits(i, sess.Rendering.Rungs[i]) / MinDownloadVirtualSec * 1.000001
				if bps > bound {
					t.Fatalf("chunk %d throughput %v exceeds floored bound %v", i, bps, bound)
				}
			}
			if sess.DownloadVirtualSec < float64(v.NumChunks())*MinDownloadVirtualSec {
				t.Fatalf("download ledger %v below the per-chunk floor", sess.DownloadVirtualSec)
			}
		})
	}
}

// TestDrainCountsEveryByte covers the segment sink on its own: the count
// is exact whether the body is empty, fits the head buffer, spans several
// bulk reads or arrives a byte at a time, and a mid-body failure returns
// the bytes that did arrive alongside the error.
func TestDrainCountsEveryByte(t *testing.T) {
	c := &Client{}
	for _, size := range []int{0, 1, len(c.sinkHead), len(c.sinkHead) + 1, 600 << 10} {
		payload := strings.Repeat("x", size)
		if n, err := c.drain(strings.NewReader(payload)); err != nil || n != int64(size) {
			t.Fatalf("drain(%d bytes) = %d, %v", size, n, err)
		}
		if n, err := c.drain(iotest.OneByteReader(strings.NewReader(payload[:min(size, 2048)]))); err != nil || n != int64(min(size, 2048)) {
			t.Fatalf("drain(%d bytes, one at a time) = %d, %v", min(size, 2048), n, err)
		}
	}
	for _, size := range []int{100, 300 << 10} {
		broken := io.MultiReader(strings.NewReader(strings.Repeat("x", size)), iotest.ErrReader(io.ErrUnexpectedEOF))
		if n, err := c.drain(broken); !errors.Is(err, io.ErrUnexpectedEOF) || n != int64(size) {
			t.Fatalf("drain(%d bytes then hangup) = %d, %v", size, n, err)
		}
	}
}
