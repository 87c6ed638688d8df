package origin

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"sensei/internal/dash"
	"sensei/internal/player"
	"sensei/internal/video"
	"sensei/internal/wire"
)

// joinSession creates a session over the wire and returns its ID.
func joinSession(t *testing.T, base string, videoName string) string {
	t.Helper()
	body, _ := json.Marshal(wire.JoinRequest{Video: videoName})
	resp, err := http.Post(base+"/session", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join: %s", resp.Status)
	}
	var jr wire.JoinResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	return jr.SessionID
}

// TestLiveWeightPlaneHTTP walks the whole wire protocol of the live
// sensitivity plane: the manifest carries the epoch (header and XML), the
// segment response advertises it, GET /weights serves the snapshot, POST
// /refresh bumps the epoch atomically, and the very next segment response
// already advertises the bumped epoch. /stats reconciles the whole story.
func TestLiveWeightPlaneHTTP(t *testing.T) {
	v := excerptOf(t, "Soccer1", 8)
	o, base := startOrigin(t, Config{
		Catalog:      []*video.Video{v},
		Profile:      trueSensitivityProfile,
		Traces:       flatTraces(map[string]float64{"f": 1e9}),
		DefaultTrace: "f",
		TimeScale:    0.001,
	})

	// Manifest: epoch 1 in the header and the XML extension.
	resp, err := http.Get(base + "/v/" + v.Name + "/manifest.mpd")
	if err != nil {
		t.Fatal(err)
	}
	mpdBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(wire.WeightEpochHeader); got != "1" {
		t.Fatalf("manifest epoch header %q", got)
	}
	var mpd wire.MPD
	if err := mpd.Parse(mpdBody); err != nil {
		t.Fatal(err)
	}
	if mpd.WeightEpoch() != 1 {
		t.Fatalf("manifest XML epoch %d", mpd.WeightEpoch())
	}

	sid := joinSession(t, base, v.Name)

	// Segment response advertises the current epoch.
	segURL := fmt.Sprintf("%s/v/%s/segment/0/0?sid=%s", base, v.Name, sid)
	resp, err = http.Get(segURL)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(wire.WeightEpochHeader); got != "1" {
		t.Fatalf("segment epoch header %q", got)
	}

	// GET /weights serves the epoch-stamped snapshot for the session.
	resp, err = http.Get(base + "/weights?sid=" + sid)
	if err != nil {
		t.Fatal(err)
	}
	var wr wire.WeightsResponse
	if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if wr.Video != v.Name || wr.Epoch != 1 || len(wr.Weights) != v.NumChunks() {
		t.Fatalf("weights response %+v", wr)
	}
	// Without a session it is a 400; with an unknown one a 404.
	if resp, err = http.Get(base + "/weights"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("sid-less weights: %s", resp.Status)
	}
	if resp, err = http.Get(base + "/weights?sid=nope"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown-sid weights: %s", resp.Status)
	}

	// POST /refresh re-profiles a window and bumps the epoch.
	refresh, _ := json.Marshal(wire.RefreshRequest{Video: v.Name, From: 2, To: 6})
	resp, err = http.Post(base+"/refresh", "application/json", bytes.NewReader(refresh))
	if err != nil {
		t.Fatal(err)
	}
	var rr wire.RefreshResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rr.Epoch != 2 {
		t.Fatalf("refresh: %s %+v", resp.Status, rr)
	}

	// The very next segment response advertises epoch 2 — the staleness
	// beacon a mid-stream client keys its re-fetch off.
	resp, err = http.Get(segURL)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(wire.WeightEpochHeader); got != "2" {
		t.Fatalf("post-refresh segment epoch header %q", got)
	}

	// Refreshing an unknown video is a 404.
	bad, _ := json.Marshal(wire.RefreshRequest{Video: "nope", From: 0, To: 1})
	if resp, err = http.Post(base+"/refresh", "application/json", bytes.NewReader(bad)); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown-video refresh: %s", resp.Status)
	}

	st := o.Stats()
	if st.ProfilesRefreshed != 1 {
		t.Fatalf("stats refreshes %d", st.ProfilesRefreshed)
	}
	if st.WeightEpochs[v.Name] != 2 {
		t.Fatalf("stats epochs %v", st.WeightEpochs)
	}
	if st.WeightsServed != 1 {
		t.Fatalf("stats weights served %d", st.WeightsServed)
	}
}

// epochWatcher records the profile epoch each decision ran under while
// always picking the bottom rung.
type epochWatcher struct {
	mu     sync.Mutex
	epochs []uint64
}

func (w *epochWatcher) Name() string { return "epoch-watcher" }
func (w *epochWatcher) Decide(s *player.State) player.Decision {
	w.mu.Lock()
	if s.Sensitivity != nil {
		w.epochs = append(w.epochs, s.Sensitivity.Epoch)
	} else {
		w.epochs = append(w.epochs, 0)
	}
	w.mu.Unlock()
	return player.Decision{Rung: 0}
}

// TestEndToEndMidStreamRefresh runs a real dash.Client against a real
// origin and fires PublishWeights mid-stream (synchronized on the origin's
// segment counter): the client must adopt the new epoch within one segment
// of the bump and finish on it.
func TestEndToEndMidStreamRefresh(t *testing.T) {
	v := excerptOf(t, "Soccer1", 8)
	scale := testScale() * 25 // slow enough that chunk downloads are observable events
	o, base := startOrigin(t, Config{
		Catalog:      []*video.Video{v},
		Profile:      trueSensitivityProfile,
		Traces:       flatTraces(map[string]float64{"f": 4e6}),
		DefaultTrace: "f",
		TimeScale:    scale,
	})

	// Bump the epoch once the origin has served half the segments: at that
	// point the session is mid-stream by construction.
	fresh := make([]float64, v.NumChunks())
	for i := range fresh {
		fresh[i] = 2
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for o.Stats().SegmentsServed < int64(v.NumChunks())/2 {
			time.Sleep(time.Millisecond)
		}
		if _, err := o.PublishWeights(v.Name, fresh); err != nil {
			t.Error(err)
		}
	}()

	watcher := &epochWatcher{}
	client := &dash.Client{BaseURL: base, Algorithm: watcher}
	sess, err := client.Stream(context.Background(), v)
	if err != nil {
		t.Fatal(err)
	}
	<-done

	if sess.WeightEpoch != 2 {
		t.Fatalf("session finished on epoch %d: %v", sess.WeightEpoch, sess.ChunkEpochs)
	}
	if sess.WeightRefreshes != 1 {
		t.Fatalf("%d refreshes", sess.WeightRefreshes)
	}
	// Epochs are monotonic and flip exactly once; the decision ledger and
	// the watcher's view agree chunk for chunk.
	var flips int
	for i := 1; i < len(sess.ChunkEpochs); i++ {
		if sess.ChunkEpochs[i] < sess.ChunkEpochs[i-1] {
			t.Fatalf("epoch went backwards: %v", sess.ChunkEpochs)
		}
		if sess.ChunkEpochs[i] != sess.ChunkEpochs[i-1] {
			flips++
		}
	}
	if flips != 1 {
		t.Fatalf("%d epoch flips: %v", flips, sess.ChunkEpochs)
	}
	for i, e := range watcher.epochs {
		if sess.ChunkEpochs[i] != e {
			t.Fatalf("ledger %v disagrees with ABR view %v", sess.ChunkEpochs, watcher.epochs)
		}
	}
	// The new weights actually reached the final decisions.
	if sess.Weights[0] != fresh[0] {
		t.Fatalf("final weights %v", sess.Weights[:2])
	}
	// The within-one-segment bound, server-side: once the bump landed, at
	// most one more segment was served under the old snapshot's decisions
	// before the client re-fetched — visible as exactly one /weights hit.
	if st := o.Stats(); st.WeightsServed != 1 {
		t.Fatalf("weights served %d", st.WeightsServed)
	}
}
