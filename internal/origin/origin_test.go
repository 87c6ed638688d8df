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

	"sensei/internal/abr"
	"sensei/internal/dash"
	"sensei/internal/player"
	"sensei/internal/trace"
	"sensei/internal/video"
	"sensei/internal/wire"
)

// testScale is the emulation's wall-clock compression; the race detector's
// instrumentation cannot keep the aggressive schedule, so compression
// drops when it is active.
func testScale() float64 {
	if raceEnabled {
		return 0.02
	}
	return 0.002
}

// excerptOf cuts a short clip of a catalog video for fast tests.
func excerptOf(t testing.TB, name string, chunks int) *video.Video {
	t.Helper()
	full, err := video.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	v, err := full.Excerpt(0, chunks)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// startOrigin builds and serves an origin, cleaning both up with the test.
func startOrigin(t testing.TB, cfg Config) (*Server, string) {
	t.Helper()
	o, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(o)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, "http://" + addr
}

// flatTraces builds named constant-rate traces.
func flatTraces(bps map[string]float64) map[string]*trace.Trace {
	out := make(map[string]*trace.Trace, len(bps))
	for name, rate := range bps {
		out[name] = &trace.Trace{Name: name, BitsPerSecond: []float64{rate}}
	}
	return out
}

// trueSensitivityProfile is the stub ProfileFunc used where real
// crowdsourcing would be overkill.
func trueSensitivityProfile(v *video.Video) ([]float64, error) {
	return v.TrueSensitivity(), nil
}

// endToEnd spins up a catalog origin and streams one session with the
// given algorithm.
func endToEnd(t *testing.T, alg player.Algorithm, profile ProfileFunc, meanBps float64) *dash.Session {
	t.Helper()
	scale := testScale()
	v := excerptOf(t, "Soccer1", 6)
	tr := trace.Generate(trace.GenSpec{Name: "e2e", Kind: trace.KindFCC, MeanBps: meanBps, Seconds: 600, Seed: 5})
	_, base := startOrigin(t, Config{
		Catalog:      []*video.Video{v},
		Profile:      profile,
		Traces:       map[string]*trace.Trace{"e2e": tr},
		DefaultTrace: "e2e",
		TimeScale:    scale,
	})
	client := &dash.Client{BaseURL: base, Algorithm: alg}
	sess, err := client.Stream(context.Background(), v)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

func TestEndToEndStreaming(t *testing.T) {
	sess := endToEnd(t, abr.NewBBA(), trueSensitivityProfile, 4e6)
	if sess.Rendering.Validate() != nil {
		t.Fatal("invalid rendering")
	}
	if sess.BytesDownloaded <= 0 {
		t.Fatal("no bytes downloaded")
	}
	if sess.Weights == nil {
		t.Fatal("weights did not arrive via manifest")
	}
	if sess.ID == "" {
		t.Fatal("session has no ID")
	}
	// Throughput ~4 Mbps: BBA should climb off the bottom rung eventually.
	var sawAboveBottom bool
	for _, r := range sess.Rendering.Rungs {
		if r > 0 {
			sawAboveBottom = true
		}
	}
	if !sawAboveBottom {
		t.Fatalf("BBA never climbed: %v", sess.Rendering.Rungs)
	}
}

func TestEndToEndWeightsReachAlgorithm(t *testing.T) {
	rec := &weightRecorder{}
	endToEnd(t, rec, trueSensitivityProfile, 4e6)
	if !rec.sawWeights {
		t.Fatal("algorithm never saw manifest weights")
	}
}

type weightRecorder struct{ sawWeights bool }

func (w *weightRecorder) Name() string { return "recorder" }
func (w *weightRecorder) Decide(s *player.State) player.Decision {
	if s.Weights != nil {
		w.sawWeights = true
	}
	return player.Decision{Rung: 0}
}

func TestEndToEndProactiveStall(t *testing.T) {
	alg := &stallOnce{}
	sess := endToEnd(t, alg, nil, 6e6)
	if sess.Rendering.StallSec[2] < 0.9 {
		t.Fatalf("proactive stall not delivered: %v", sess.Rendering.StallSec)
	}
	if sess.RebufferVirtualSec < 0.9 {
		t.Fatalf("rebuffer ledger %v", sess.RebufferVirtualSec)
	}
}

type stallOnce struct{}

func (stallOnce) Name() string { return "stall-once" }
func (stallOnce) Decide(s *player.State) player.Decision {
	if s.ChunkIndex == 2 {
		return player.Decision{Rung: 0, PreStallSec: 1}
	}
	return player.Decision{Rung: 0}
}

// postJSON is a small control-plane helper for protocol-level tests.
func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestSessionControlPlane(t *testing.T) {
	v := excerptOf(t, "Tank", 4)
	srv, base := startOrigin(t, Config{
		Catalog:      []*video.Video{v},
		Traces:       flatTraces(map[string]float64{"fast": 1e9, "slow": 1e6}),
		DefaultTrace: "fast",
		TimeScale:    0.001,
	})

	// Join with explicit trace.
	resp, body := postJSON(t, base+"/session", wire.JoinRequest{Video: v.Name, Trace: "slow"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join: %s: %s", resp.Status, body)
	}
	var jr wire.JoinResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	if jr.SessionID == "" || jr.Video != v.Name || jr.Trace != "slow" || jr.TimeScale != 0.001 {
		t.Fatalf("join response %+v", jr)
	}

	// Unknown video and unknown trace are rejected.
	if resp, _ := postJSON(t, base+"/session", wire.JoinRequest{Video: "NoSuch"}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown video: %s", resp.Status)
	}
	if resp, _ := postJSON(t, base+"/session", wire.JoinRequest{Video: v.Name, Trace: "nope"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown trace: %s", resp.Status)
	}
	if resp, _ := postJSON(t, base+"/session", wire.JoinRequest{Video: v.Name, TimeScale: -1}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative timescale: %s", resp.Status)
	}

	// Segments demand a valid session.
	if resp, _ := get(t, base+"/v/"+v.Name+"/segment/0/0"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("segment without sid: %s", resp.Status)
	}
	if resp, _ := get(t, base+"/v/"+v.Name+"/segment/0/0?sid=ghost"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("segment with unknown sid: %s", resp.Status)
	}
	if resp, _ := get(t, fmt.Sprintf("%s/v/%s/segment/999/0?sid=%s", base, v.Name, jr.SessionID)); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("out-of-range segment: %s", resp.Status)
	}

	// A good segment serves exactly the encoded size.
	resp, body = get(t, fmt.Sprintf("%s/v/%s/segment/0/0?sid=%s", base, v.Name, jr.SessionID))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("segment: %s", resp.Status)
	}
	if want := int(v.ChunkSizeBits(0, 0) / 8); len(body) != want {
		t.Fatalf("segment body %d bytes, want %d", len(body), want)
	}

	// Leave, then the session is gone.
	req, err := http.NewRequest(http.MethodDelete, base+"/session/"+jr.SessionID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("leave: %s", dresp.Status)
	}
	if resp, _ := get(t, fmt.Sprintf("%s/v/%s/segment/0/0?sid=%s", base, v.Name, jr.SessionID)); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("segment after leave: %s", resp.Status)
	}

	st := srv.Origin().Stats()
	if st.SessionsCreated != 1 || st.SessionsClosed != 1 || st.ActiveSessions != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestSegmentPinnedToSessionVideo(t *testing.T) {
	va := excerptOf(t, "Soccer1", 4)
	vb := excerptOf(t, "Tank", 4)
	_, base := startOrigin(t, Config{
		Catalog:      []*video.Video{va, vb},
		Traces:       flatTraces(map[string]float64{"f": 1e9}),
		DefaultTrace: "f",
		TimeScale:    0.001,
	})
	resp, body := postJSON(t, base+"/session", wire.JoinRequest{Video: va.Name})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join: %s: %s", resp.Status, body)
	}
	var jr wire.JoinResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	if resp, _ := get(t, fmt.Sprintf("%s/v/%s/segment/0/0?sid=%s", base, vb.Name, jr.SessionID)); resp.StatusCode != http.StatusConflict {
		t.Fatalf("cross-video segment: %s", resp.Status)
	}
}

func TestSessionIdleExpiry(t *testing.T) {
	v := excerptOf(t, "Lava", 4)
	srv, base := startOrigin(t, Config{
		Catalog:            []*video.Video{v},
		Traces:             flatTraces(map[string]float64{"f": 1e9}),
		DefaultTrace:       "f",
		TimeScale:          0.001,
		SessionIdleTimeout: 40 * time.Millisecond,
	})
	resp, body := postJSON(t, base+"/session", wire.JoinRequest{Video: v.Name})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join: %s: %s", resp.Status, body)
	}
	var jr wire.JoinResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := srv.Origin().Stats()
		if st.SessionsExpired == 1 && st.ActiveSessions == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session never expired: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if resp, _ := get(t, fmt.Sprintf("%s/v/%s/segment/0/0?sid=%s", base, v.Name, jr.SessionID)); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("segment on expired session: %s", resp.Status)
	}
}

func TestSessionCap(t *testing.T) {
	v := excerptOf(t, "Girl", 4)
	_, base := startOrigin(t, Config{
		Catalog:      []*video.Video{v},
		Traces:       flatTraces(map[string]float64{"f": 1e9}),
		DefaultTrace: "f",
		MaxSessions:  2,
	})
	for i := 0; i < 2; i++ {
		if resp, body := postJSON(t, base+"/session", wire.JoinRequest{Video: v.Name}); resp.StatusCode != http.StatusOK {
			t.Fatalf("join %d: %s: %s", i, resp.Status, body)
		}
	}
	if resp, _ := postJSON(t, base+"/session", wire.JoinRequest{Video: v.Name}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("join beyond cap: %s", resp.Status)
	}
}

// TestGracefulShutdownDrains starts a shaped segment download, shuts the
// server down mid-transfer, and expects the in-flight response to finish
// intact — the satellite fix for Close() dropping live streams.
func TestGracefulShutdownDrains(t *testing.T) {
	v := excerptOf(t, "Soccer1", 4)
	// Slow enough that the download outlives the Shutdown call: the top
	// rung is ~11 Mb, which at 2 Mbps is ~5.7 virtual seconds — a few
	// hundred wall milliseconds at this scale.
	o, err := New(Config{
		Catalog:      []*video.Video{v},
		Traces:       flatTraces(map[string]float64{"f": 2e6}),
		DefaultTrace: "f",
		TimeScale:    0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(o)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr

	resp, body := postJSON(t, base+"/session", wire.JoinRequest{Video: v.Name})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join: %s: %s", resp.Status, body)
	}
	var jr wire.JoinResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}

	want := int(v.ChunkSizeBits(0, len(v.Ladder)-1) / 8)
	type result struct {
		n   int
		err error
	}
	got := make(chan result, 1)
	started := make(chan struct{})
	go func() {
		resp, err := http.Get(fmt.Sprintf("%s/v/%s/segment/0/%d?sid=%s", base, v.Name, len(v.Ladder)-1, jr.SessionID))
		if err != nil {
			close(started)
			got <- result{0, err}
			return
		}
		defer resp.Body.Close()
		close(started) // headers received: the stream is in flight
		data, err := io.ReadAll(resp.Body)
		got <- result{len(data), err}
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	r := <-got
	if r.err != nil {
		t.Fatalf("in-flight download dropped: %v", r.err)
	}
	if r.n != want {
		t.Fatalf("in-flight download truncated: %d of %d bytes", r.n, want)
	}
	// New connections must be refused after shutdown.
	if _, err := http.Get(base + "/stats"); err == nil {
		t.Fatal("server accepted a connection after Shutdown")
	}
}

// TestServerSurvivesClientAbort makes sure a client disconnecting
// mid-segment does not wedge the origin for subsequent requests.
func TestServerSurvivesClientAbort(t *testing.T) {
	v := excerptOf(t, "Soccer1", 6)
	_, base := startOrigin(t, Config{
		Catalog:      []*video.Video{v},
		Traces:       flatTraces(map[string]float64{"slow": 1e6}),
		DefaultTrace: "slow",
		TimeScale:    0.01,
	})
	resp, body := postJSON(t, base+"/session", wire.JoinRequest{Video: v.Name})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join: %s: %s", resp.Status, body)
	}
	var jr wire.JoinResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}

	// Abort a large segment mid-stream via a canceled context.
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v/%s/segment/0/4?sid=%s", base, v.Name, jr.SessionID), nil)
	if err != nil {
		t.Fatal(err)
	}
	aresp, err := http.DefaultClient.Do(req)
	if err == nil {
		buf := make([]byte, 1024)
		_, _ = aresp.Body.Read(buf)
		cancel()
		aresp.Body.Close()
	} else {
		cancel()
	}

	// The origin must still answer.
	mresp, mbody := get(t, base+"/v/"+v.Name+"/manifest.mpd")
	if mresp.StatusCode != http.StatusOK || len(mbody) == 0 {
		t.Fatalf("manifest after abort: %s (%d bytes)", mresp.Status, len(mbody))
	}
}

// TestDeleteSessionMidStream pins DELETE /session to the janitor's rule: a
// session with a segment stream in flight is refused with 409 (the old
// handler deleted it, so a live stream kept crediting bytes to a session
// that /stats no longer knew about). After the stream drains the DELETE
// succeeds and the byte/segment ledgers reconcile exactly.
func TestDeleteSessionMidStream(t *testing.T) {
	v := excerptOf(t, "Soccer1", 4)
	// Slow enough that the download comfortably outlives the mid-stream
	// DELETE: the top rung is ~11 Mb, which at 2 Mbps is ~5.7 virtual
	// seconds — a few hundred wall milliseconds at this scale.
	srv, base := startOrigin(t, Config{
		Catalog:      []*video.Video{v},
		Traces:       flatTraces(map[string]float64{"f": 2e6}),
		DefaultTrace: "f",
		TimeScale:    0.05,
	})
	resp, body := postJSON(t, base+"/session", wire.JoinRequest{Video: v.Name})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join: %s: %s", resp.Status, body)
	}
	var jr wire.JoinResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}

	del := func() *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodDelete, base+"/session/"+jr.SessionID, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	want := int(v.ChunkSizeBits(0, len(v.Ladder)-1) / 8)
	type result struct {
		n   int
		err error
	}
	got := make(chan result, 1)
	started := make(chan struct{})
	go func() {
		resp, err := http.Get(fmt.Sprintf("%s/v/%s/segment/0/%d?sid=%s", base, v.Name, len(v.Ladder)-1, jr.SessionID))
		if err != nil {
			close(started)
			got <- result{0, err}
			return
		}
		defer resp.Body.Close()
		close(started) // headers received: the stream is in flight
		data, err := io.ReadAll(resp.Body)
		got <- result{len(data), err}
	}()
	<-started

	// Mid-stream: the session must refuse to die.
	if resp := del(); resp.StatusCode != http.StatusConflict {
		t.Fatalf("mid-stream DELETE: %s, want 409", resp.Status)
	}
	r := <-got
	if r.err != nil {
		t.Fatalf("stream after refused DELETE: %v", r.err)
	}
	if r.n != want {
		t.Fatalf("stream truncated: %d of %d bytes", r.n, want)
	}

	// Session-ledger vs bytes_served consistency: every streamed byte is on
	// a registered session's row.
	st := srv.Origin().Stats()
	if st.ActiveSessions != 1 || len(st.Sessions) != 1 {
		t.Fatalf("session vanished mid-stream: %+v", st)
	}
	if st.Sessions[0].Bytes != int64(want) || st.BytesServed != int64(want) {
		t.Fatalf("ledger mismatch: session row %d, bytes_served %d, want %d",
			st.Sessions[0].Bytes, st.BytesServed, want)
	}
	if st.Sessions[0].Segments != 1 || st.SegmentsServed != 1 {
		t.Fatalf("segment ledger mismatch: %+v", st)
	}

	// Drained: now the DELETE goes through and the global ledger survives.
	if resp := del(); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("post-drain DELETE: %s, want 204", resp.Status)
	}
	st = srv.Origin().Stats()
	if st.ActiveSessions != 0 || st.SessionsClosed != 1 {
		t.Fatalf("post-delete stats: %+v", st)
	}
	if st.BytesServed != int64(want) || st.SegmentsServed != 1 {
		t.Fatalf("post-delete ledger: %+v", st)
	}
}

// TestClientLadderValidation streams against an origin whose catalog video
// disagrees with the client's local model.
func TestClientLadderValidation(t *testing.T) {
	v := excerptOf(t, "Soccer1", 4)
	_, base := startOrigin(t, Config{
		Catalog:      []*video.Video{v},
		Traces:       flatTraces(map[string]float64{"f": 1e9}),
		DefaultTrace: "f",
		TimeScale:    0.001,
	})
	local := *v
	local.Ladder = append([]int(nil), v.Ladder...)
	local.Ladder[0]++
	client := &dash.Client{BaseURL: base, Algorithm: abr.NewBBA()}
	if _, err := client.Stream(context.Background(), &local); err == nil {
		t.Fatal("mismatched ladder streamed anyway")
	}
}

func TestConfigValidation(t *testing.T) {
	v := excerptOf(t, "Soccer1", 4)
	traces := flatTraces(map[string]float64{"f": 1e9})
	cases := []struct {
		name string
		cfg  Config
	}{
		{"empty catalog", Config{Traces: traces, DefaultTrace: "f"}},
		{"no traces", Config{Catalog: []*video.Video{v}}},
		{"missing default trace", Config{Catalog: []*video.Video{v}, Traces: traces}},
		{"unknown default trace", Config{Catalog: []*video.Video{v}, Traces: traces, DefaultTrace: "nope"}},
		{"duplicate video", Config{Catalog: []*video.Video{v, v}, Traces: traces, DefaultTrace: "f"}},
		{"invalid trace", Config{Catalog: []*video.Video{v}, Traces: map[string]*trace.Trace{"bad": {Name: "bad"}}, DefaultTrace: "bad"}},
	}
	for _, c := range cases {
		if o, err := New(c.cfg); err == nil {
			o.Close()
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestStatsEndpoint(t *testing.T) {
	v := excerptOf(t, "Soccer1", 4)
	_, base := startOrigin(t, Config{
		Catalog:      []*video.Video{v},
		Profile:      trueSensitivityProfile,
		Traces:       flatTraces(map[string]float64{"f": 1e9}),
		DefaultTrace: "f",
		TimeScale:    0.001,
	})
	client := &dash.Client{BaseURL: base, Algorithm: abr.NewBBA()}
	sess, err := client.Stream(context.Background(), v)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := get(t, base+"/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %s", resp.Status)
	}
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ActiveSessions != 1 || st.SessionsCreated != 1 {
		t.Fatalf("stats sessions: %+v", st)
	}
	if st.BytesServed != sess.BytesDownloaded {
		t.Fatalf("stats bytes %d, client downloaded %d", st.BytesServed, sess.BytesDownloaded)
	}
	if st.SegmentsServed != int64(v.NumChunks()) || st.VideoHits[v.Name] != int64(v.NumChunks()) {
		t.Fatalf("stats segments: %+v", st)
	}
	if st.ProfilesComputed != 1 {
		t.Fatalf("profiles computed %d", st.ProfilesComputed)
	}
	if len(st.Sessions) != 1 || st.Sessions[0].Video != v.Name || st.Sessions[0].Bytes != sess.BytesDownloaded {
		t.Fatalf("per-session stats: %+v", st.Sessions)
	}
}
