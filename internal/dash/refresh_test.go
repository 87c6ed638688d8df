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

	"sensei/internal/player"
	"sensei/internal/sensitivity"
	"sensei/internal/video"
	"sensei/internal/wire"
)

// refreshStub is a stub origin speaking the live-weight-plane protocol:
// manifest with epoch, segments stamped with wire.WeightEpochHeader, and
// GET /weights serving the current snapshot. The epoch flips from 1 to 2
// after a scripted number of segment responses, so the flip lands on a
// known chunk deterministically.
type refreshStub struct {
	v         *video.Video
	w1, w2    []float64
	flipAfter int64 // segments served at epoch 1 before the flip

	segments atomic.Int64
	fetches  atomic.Int64
	// weightsBody optionally overrides the /weights payload (wire-poisoning
	// tests).
	weightsBody func(epoch uint64) string
}

func (s *refreshStub) epoch() uint64 {
	if s.segments.Load() >= s.flipAfter {
		return 2
	}
	return 1
}

func (s *refreshStub) weights() []float64 {
	if s.epoch() == 2 {
		return s.w2
	}
	return s.w1
}

func (s *refreshStub) start(t *testing.T) string {
	t.Helper()
	mpd, err := wire.BuildMPDProfile(s.v, s.w1, 1)
	if err != nil {
		t.Fatal(err)
	}
	manifest := mpd.AppendMPD(nil)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /session", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"session_id":"stub","video":%q,"trace":"flat","timescale":100}`, s.v.Name)
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
		// served is this response's 0-based index: responses 0..flipAfter-1
		// advertise epoch 1, everything after the flip advertises epoch 2.
		served := s.segments.Add(1) - 1
		epoch := uint64(1)
		if served >= s.flipAfter {
			epoch = 2
		}
		w.Header().Set(wire.WeightEpochHeader, strconv.FormatUint(epoch, 10))
		_, _ = w.Write(make([]byte, int(s.v.ChunkSizeBits(chunk, rung)/8)))
	})
	mux.HandleFunc("GET /weights", func(w http.ResponseWriter, r *http.Request) {
		s.fetches.Add(1)
		epoch := s.epoch()
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(wire.WeightEpochHeader, strconv.FormatUint(epoch, 10))
		if s.weightsBody != nil {
			fmt.Fprint(w, s.weightsBody(epoch))
			return
		}
		ws := s.weights()
		body := `{"video":` + strconv.Quote(s.v.Name) + `,"epoch":` + strconv.FormatUint(epoch, 10) + `,"weights":[`
		for i, x := range ws {
			if i > 0 {
				body += ","
			}
			body += strconv.FormatFloat(x, 'g', -1, 64)
		}
		fmt.Fprint(w, body+"]}")
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv.URL
}

// uniformW builds an n-chunk weight vector of the given value.
func uniformW(n int, val float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = val
	}
	return out
}

// TestClientPicksUpEpochFlipWithinOneSegment is the wire half of the
// within-one-segment contract: when segment k's response advertises a newer
// epoch, the client re-fetches /weights and decision k+1 already runs on
// the new snapshot.
func TestClientPicksUpEpochFlipWithinOneSegment(t *testing.T) {
	v := testVideo(t)
	n := v.NumChunks()
	const flipAfter = 3 // segments 0..2 advertise epoch 1, segment 3 epoch 2
	stub := &refreshStub{v: v, w1: uniformW(n, 1), w2: uniformW(n, 2), flipAfter: flipAfter}
	base := stub.start(t)

	var seen [][]float64
	c := &Client{
		BaseURL: base,
		Algorithm: scriptedABR{decide: func(s *player.State) player.Decision {
			seen = append(seen, s.Weights)
			if s.Sensitivity == nil {
				t.Error("decision without a sensitivity snapshot")
			}
			return player.Decision{Rung: 0}
		}},
	}
	sess, err := c.Stream(context.Background(), v)
	if err != nil {
		t.Fatal(err)
	}

	// The flip is first advertised on chunk flipAfter's segment response,
	// so decisions 0..flipAfter run under epoch 1 and every decision after
	// — the very next one included, that is the contract — under epoch 2.
	for i, e := range sess.ChunkEpochs {
		want := uint64(1)
		if i > flipAfter {
			want = 2
		}
		if e != want {
			t.Fatalf("chunk %d decided under epoch %d, want %d (ledger %v)", i, e, want, sess.ChunkEpochs)
		}
	}
	for i, w := range seen {
		want := 1.0
		if i > flipAfter {
			want = 2.0
		}
		if w[0] != want {
			t.Fatalf("decision %d saw weight %v, want %v", i, w[0], want)
		}
	}
	if sess.WeightEpoch != 2 {
		t.Fatalf("final epoch %d", sess.WeightEpoch)
	}
	if sess.WeightRefreshes != 1 {
		t.Fatalf("%d refreshes, want exactly 1", sess.WeightRefreshes)
	}
	if got := stub.fetches.Load(); got != 1 {
		t.Fatalf("%d /weights fetches, want 1 (no polling)", got)
	}
	if sess.Weights[0] != 2 {
		t.Fatalf("session final weights %v", sess.Weights[:1])
	}
}

// TestClientRejectsPoisonedWireWeights: wire-carried weights go through the
// same crowd.ValidWeight trust boundary as manifest ones — NaN, ≤0 and >10
// vectors are refused instead of reaching the MPC objective.
func TestClientRejectsPoisonedWireWeights(t *testing.T) {
	v := testVideo(t)
	n := v.NumChunks()
	cases := []struct {
		name string
		body func(epoch uint64) string
	}{
		{"nan", func(epoch uint64) string {
			return fmt.Sprintf(`{"video":%q,"epoch":%d,"weights":[%s]}`,
				v.Name, epoch, `null`+strings.Repeat(",1", n-1))
		}},
		{"negative", func(epoch uint64) string {
			return fmt.Sprintf(`{"video":%q,"epoch":%d,"weights":[-1%s]}`, v.Name, epoch, strings.Repeat(",1", n-1))
		}},
		{"huge", func(epoch uint64) string {
			return fmt.Sprintf(`{"video":%q,"epoch":%d,"weights":[400%s]}`, v.Name, epoch, strings.Repeat(",1", n-1))
		}},
		{"wrong length", func(epoch uint64) string {
			return fmt.Sprintf(`{"video":%q,"epoch":%d,"weights":[1,1]}`, v.Name, epoch)
		}},
		{"wrong video", func(epoch uint64) string {
			return fmt.Sprintf(`{"video":"other","epoch":%d,"weights":[1%s]}`, epoch, strings.Repeat(",1", n-1))
		}},
		{"weighted at epoch 0", func(epoch uint64) string {
			return fmt.Sprintf(`{"video":%q,"epoch":0,"weights":[1%s]}`, v.Name, strings.Repeat(",1", n-1))
		}},
		{"weightless at positive epoch", func(epoch uint64) string {
			return fmt.Sprintf(`{"video":%q,"epoch":%d}`, v.Name, epoch)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stub := &refreshStub{v: v, w1: uniformW(n, 1), w2: uniformW(n, 2), flipAfter: 1, weightsBody: tc.body}
			c := &Client{
				BaseURL:   stub.start(t),
				Algorithm: scriptedABR{decide: func(*player.State) player.Decision { return player.Decision{Rung: 0} }},
			}
			if _, err := c.Stream(context.Background(), v); err == nil {
				t.Fatal("poisoned wire weights accepted")
			}
		})
	}
}

// TestClientInjectedSourceMatchesSimulatorPolling: with an injected
// sensitivity.Source the client polls exactly one snapshot per decision —
// the same cadence player.PlayWithSource uses — so a scripted flip lands on
// the same chunk in both. (The full rung-parity proof over a real origin
// lives in internal/fleet/parity_test.go.)
func TestClientInjectedSourceMatchesSimulatorPolling(t *testing.T) {
	v := testVideo(t)
	n := v.NumChunks()
	const flipAt = 2
	src, err := sensitivity.NewScript(v.Name,
		sensitivity.ScriptStep{Weights: uniformW(n, 1), Chunks: flipAt},
		sensitivity.ScriptStep{Weights: uniformW(n, 3)},
	)
	if err != nil {
		t.Fatal(err)
	}
	stub := &refreshStub{v: v, w1: uniformW(n, 1), w2: uniformW(n, 1), flipAfter: int64(n) + 1}
	c := &Client{
		BaseURL:     stub.start(t),
		Sensitivity: src,
		Algorithm:   scriptedABR{decide: func(*player.State) player.Decision { return player.Decision{Rung: 0} }},
	}
	sess, err := c.Stream(context.Background(), v)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range sess.ChunkEpochs {
		want := uint64(1)
		if i >= flipAt {
			want = 2
		}
		if e != want {
			t.Fatalf("chunk %d under epoch %d, want %d", i, e, want)
		}
	}
	if stub.fetches.Load() != 0 {
		t.Fatal("injected source still hit the wire weights endpoint")
	}
}

// TestClientStaleWeightsEndpointNoPolling: an origin (or edge cache) whose
// segment headers advertise a new epoch while GET /weights still serves
// the old one must cost one fetch per advertised bump — not one per
// remaining chunk — and the session completes on the profile it has.
func TestClientStaleWeightsEndpointNoPolling(t *testing.T) {
	v := testVideo(t)
	n := v.NumChunks()
	stub := &refreshStub{
		v: v, w1: uniformW(n, 1), w2: uniformW(n, 2), flipAfter: 2,
		// The weights endpoint lags forever: it keeps serving epoch 1.
		weightsBody: func(uint64) string {
			body := `{"video":` + strconv.Quote(v.Name) + `,"epoch":1,"weights":[1`
			return body + strings.Repeat(",1", n-1) + `]}`
		},
	}
	c := &Client{
		BaseURL:   stub.start(t),
		Algorithm: scriptedABR{decide: func(*player.State) player.Decision { return player.Decision{Rung: 0} }},
	}
	sess, err := c.Stream(context.Background(), v)
	if err != nil {
		t.Fatal(err)
	}
	if got := stub.fetches.Load(); got != 1 {
		t.Fatalf("%d /weights fetches against a lagging endpoint, want 1", got)
	}
	if sess.WeightRefreshes != 1 {
		t.Fatalf("%d refreshes ledgered", sess.WeightRefreshes)
	}
	if sess.WeightEpoch != 1 {
		t.Fatalf("session adopted phantom epoch %d", sess.WeightEpoch)
	}
}

// TestClientRejectsWeightlessEpochManifest: the manifest boundary applies
// the same rule as /weights — a positive epoch without weights would seed
// the staleness tracker and suppress adoption of every real profile the
// origin publishes up to that epoch.
func TestClientRejectsWeightlessEpochManifest(t *testing.T) {
	v := testVideo(t)
	mpd, err := wire.BuildMPDProfile(v, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	mpd.Period.AdaptationSet.WeightEpoch = 5 // forged: BuildMPDProfile refuses this
	manifest := mpd.AppendMPD(nil)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /session", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"session_id":"stub","video":%q,"trace":"flat","timescale":100}`, v.Name)
	})
	mux.HandleFunc("GET /v/{video}/manifest.mpd", func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(manifest)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	c := &Client{
		BaseURL:   srv.URL,
		Algorithm: scriptedABR{decide: func(*player.State) player.Decision { return player.Decision{Rung: 0} }},
	}
	if _, err := c.Stream(context.Background(), v); err == nil {
		t.Fatal("weightless epoch-5 manifest accepted")
	}
}
