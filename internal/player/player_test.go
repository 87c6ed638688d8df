package player

import (
	"math"
	"testing"

	"sensei/internal/qoe"
	"sensei/internal/sensitivity"
	"sensei/internal/trace"
	"sensei/internal/video"
)

// fixedAlg always picks the same rung and proactive stall schedule.
type fixedAlg struct {
	rung     int
	preStall map[int]float64
}

func (f *fixedAlg) Name() string { return "fixed" }
func (f *fixedAlg) Decide(s *State) Decision {
	return Decision{Rung: f.rung, PreStallSec: f.preStall[s.ChunkIndex]}
}

// recordingAlg captures the states it sees.
type recordingAlg struct {
	states []State
	rung   int
}

func (r *recordingAlg) Name() string { return "recording" }
func (r *recordingAlg) Decide(s *State) Decision {
	cp := *s
	cp.ThroughputBps = append([]float64(nil), s.ThroughputBps...)
	r.states = append(r.states, cp)
	return Decision{Rung: r.rung}
}

func testVideo(t *testing.T) *video.Video {
	t.Helper()
	full, err := video.ByName("Soccer1")
	if err != nil {
		t.Fatal(err)
	}
	v, err := full.Excerpt(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func flatTrace(bps float64, secs int) *trace.Trace {
	s := make([]float64, secs)
	for i := range s {
		s[i] = bps
	}
	return &trace.Trace{Name: "flat", BitsPerSecond: s}
}

func TestPlayFastNetworkNoStalls(t *testing.T) {
	v := testVideo(t)
	// 50 Mbps: every chunk downloads near-instantly.
	res, err := Play(v, flatTrace(50e6, 600), &fixedAlg{rung: 4}, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.RebufferSec != 0 {
		t.Fatalf("rebuffered %v on a fast network", res.RebufferSec)
	}
	if res.Rendering.MeanBitrateKbps() != 2850 {
		t.Fatalf("mean bitrate %v", res.Rendering.MeanBitrateKbps())
	}
	if res.StartupSec <= 0 {
		t.Fatal("startup should take nonzero time")
	}
}

func TestPlaySlowNetworkStalls(t *testing.T) {
	v := testVideo(t)
	// 1 Mbps but requesting 2850 kbps: guaranteed stalling.
	res, err := Play(v, flatTrace(1e6, 3600), &fixedAlg{rung: 4}, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.RebufferSec <= 0 {
		t.Fatal("expected rebuffering at top rung on 1 Mbps")
	}
	// Lowest rung at 1 Mbps: comfortable.
	res0, err := Play(v, flatTrace(1e6, 3600), &fixedAlg{rung: 0}, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res0.RebufferSec != 0 {
		t.Fatalf("lowest rung rebuffered %v at 1 Mbps", res0.RebufferSec)
	}
}

func TestStartupNotCountedAsRebuffer(t *testing.T) {
	v := testVideo(t)
	res, err := Play(v, flatTrace(3e6, 3600), &fixedAlg{rung: 4}, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rendering.StallSec[0] != 0 {
		t.Fatalf("startup leaked into stall ledger: %v", res.Rendering.StallSec[0])
	}
}

func TestProactiveStall(t *testing.T) {
	v := testVideo(t)
	alg := &fixedAlg{rung: 2, preStall: map[int]float64{3: 1.5}}
	res, err := Play(v, flatTrace(10e6, 3600), alg, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ProactiveStallSec != 1.5 {
		t.Fatalf("proactive stall %v, want 1.5", res.ProactiveStallSec)
	}
	if res.Rendering.StallSec[3] != 1.5 {
		t.Fatalf("stall not attributed to chunk 3: %v", res.Rendering.StallSec)
	}
	if res.RebufferSec != 1.5 {
		t.Fatalf("rebuffer total %v", res.RebufferSec)
	}
}

func TestProactiveStallCapped(t *testing.T) {
	v := testVideo(t)
	alg := &fixedAlg{rung: 2, preStall: map[int]float64{2: 99}}
	res, err := Play(v, flatTrace(10e6, 3600), alg, nil, Config{MaxPreStallSec: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.ProactiveStallSec != 1.5 {
		t.Fatalf("stall %v, want capped at 1.5", res.ProactiveStallSec)
	}
}

func TestProactiveStallIgnoredOnFirstChunk(t *testing.T) {
	v := testVideo(t)
	alg := &fixedAlg{rung: 2, preStall: map[int]float64{0: 2}}
	res, err := Play(v, flatTrace(10e6, 3600), alg, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ProactiveStallSec != 0 {
		t.Fatal("pre-stall before playback start should be ignored")
	}
}

func TestBufferCapPausesDownloads(t *testing.T) {
	v := testVideo(t)
	// Tiny buffer cap: the session must take at least video duration.
	res, err := Play(v, flatTrace(50e6, 3600), &fixedAlg{rung: 0}, nil, Config{MaxBufferSec: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.WallClockSec < v.Duration().Seconds()-1 {
		t.Fatalf("wall clock %v shorter than video %v", res.WallClockSec, v.Duration().Seconds())
	}
}

func TestStateEvolution(t *testing.T) {
	v := testVideo(t)
	alg := &recordingAlg{rung: 1}
	if _, err := Play(v, flatTrace(5e6, 3600), alg, nil, Config{HistoryLen: 3}); err != nil {
		t.Fatal(err)
	}
	if len(alg.states) != v.NumChunks() {
		t.Fatalf("%d decisions", len(alg.states))
	}
	if alg.states[0].LastRung != -1 || alg.states[0].BufferSec != 0 {
		t.Fatal("initial state wrong")
	}
	if alg.states[1].LastRung != 1 {
		t.Fatal("last rung not propagated")
	}
	if len(alg.states[0].ThroughputBps) != 0 {
		t.Fatal("history should start empty")
	}
	for _, s := range alg.states {
		if len(s.ThroughputBps) > 3 {
			t.Fatalf("history exceeded bound: %d", len(s.ThroughputBps))
		}
	}
	last := alg.states[len(alg.states)-1]
	if len(last.ThroughputBps) != 3 {
		t.Fatalf("history length %d, want 3", len(last.ThroughputBps))
	}
	// On a flat 5 Mbps trace, measured throughput should be ~5 Mbps.
	if math.Abs(last.ThroughputBps[2]-5e6)/5e6 > 0.3 {
		t.Fatalf("measured throughput %v far from 5 Mbps", last.ThroughputBps[2])
	}
}

func TestPlayValidation(t *testing.T) {
	v := testVideo(t)
	tr := flatTrace(5e6, 600)
	if _, err := Play(v, tr, &fixedAlg{rung: 99}, nil, Config{}); err == nil {
		t.Error("invalid rung accepted")
	}
	if _, err := Play(v, tr, &fixedAlg{rung: 1}, []float64{1, 2}, Config{}); err == nil {
		t.Error("wrong weight length accepted")
	}
	bad := &trace.Trace{Name: "bad"}
	if _, err := Play(v, bad, &fixedAlg{rung: 1}, nil, Config{}); err == nil {
		t.Error("invalid trace accepted")
	}
}

func TestBitsDownloadedMatchesRendering(t *testing.T) {
	v := testVideo(t)
	res, err := Play(v, flatTrace(8e6, 3600), &fixedAlg{rung: 3}, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.BitsDownloaded-renderedBits(res.Rendering)) > 1 {
		t.Fatalf("bits mismatch: %v vs %v", res.BitsDownloaded, renderedBits(res.Rendering))
	}
}

// renderedBits is the total size of the chunks a rendering delivered.
func renderedBits(r *qoe.Rendering) float64 {
	var s float64
	for i, rung := range r.Rungs {
		s += r.Video.ChunkSizeBits(i, rung)
	}
	return s
}

func TestDeterministicPlayback(t *testing.T) {
	v := testVideo(t)
	tr := trace.Generate(trace.GenSpec{Name: "g", Kind: trace.KindHSDPA, MeanBps: 2e6, Seconds: 900, Seed: 7})
	a, err := Play(v, tr, &fixedAlg{rung: 3}, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Play(v, tr, &fixedAlg{rung: 3}, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if a.RebufferSec != b.RebufferSec || a.WallClockSec != b.WallClockSec {
		t.Fatal("replay diverged")
	}
}

// TestPlayWithSourceScriptedFlip drives a scripted mid-session epoch flip
// through the simulator: every decision must see exactly the snapshot the
// script put in force, and the flip must be visible in ChunkEpochs.
func TestPlayWithSourceScriptedFlip(t *testing.T) {
	v := testVideo(t)
	n := v.NumChunks()
	w1 := make([]float64, n)
	w2 := make([]float64, n)
	for i := range w1 {
		w1[i], w2[i] = 1, 1
	}
	w2[n-1] = 5 // the refresh discovers a high-sensitivity ending
	const flipAt = 4
	src, err := sensitivity.NewScript(v.Name,
		sensitivity.ScriptStep{Weights: w1, Chunks: flipAt},
		sensitivity.ScriptStep{Weights: w2},
	)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingAlg{rung: 2}
	res, err := PlayWithSource(v, flatTrace(5e6, 3600), rec, src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ChunkEpochs) != n {
		t.Fatalf("%d chunk epochs for %d chunks", len(res.ChunkEpochs), n)
	}
	for i, e := range res.ChunkEpochs {
		want := uint64(1)
		if i >= flipAt {
			want = 2
		}
		if e != want {
			t.Fatalf("chunk %d on epoch %d, want %d (%v)", i, e, want, res.ChunkEpochs)
		}
	}
	for i, st := range rec.states {
		wantW := w1
		if i >= flipAt {
			wantW = w2
		}
		if st.Weights[n-1] != wantW[n-1] {
			t.Fatalf("decision %d saw weights[%d]=%v", i, n-1, st.Weights[n-1])
		}
		if st.Sensitivity == nil || st.Sensitivity.Epoch != res.ChunkEpochs[i] {
			t.Fatalf("decision %d snapshot %+v, epoch ledger %d", i, st.Sensitivity, res.ChunkEpochs[i])
		}
	}
}

// TestPlayFrozenAdapterMatchesLegacy: Play(weights) and PlayWithSource over
// a frozen source are the same session, bit for bit.
func TestPlayFrozenAdapterMatchesLegacy(t *testing.T) {
	v := testVideo(t)
	w := v.TrueSensitivity()
	tr := flatTrace(2.5e6, 3600)
	a, err := Play(v, tr, &fixedAlg{rung: 3}, w, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := PlayWithSource(v, tr, &fixedAlg{rung: 3}, sensitivity.Freeze(v.Name, w), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if a.RebufferSec != b.RebufferSec || a.BitsDownloaded != b.BitsDownloaded {
		t.Fatalf("frozen adapter diverged: %+v vs %+v", a, b)
	}
	for i := range a.Rendering.Rungs {
		if a.Rendering.Rungs[i] != b.Rendering.Rungs[i] {
			t.Fatalf("rung %d diverged", i)
		}
	}
	for _, e := range b.ChunkEpochs {
		if e != 1 {
			t.Fatalf("frozen session epochs %v", b.ChunkEpochs)
		}
	}
}

// TestPlayRejectsWrongLengthSnapshot: a source handing out a profile sized
// for a different cut of the video is an error, not silent misindexing.
func TestPlayRejectsWrongLengthSnapshot(t *testing.T) {
	v := testVideo(t)
	short := make([]float64, v.NumChunks()-1)
	for i := range short {
		short[i] = 1
	}
	_, err := PlayWithSource(v, flatTrace(5e6, 600), &fixedAlg{rung: 0}, sensitivity.Freeze(v.Name, short), Config{})
	if err == nil {
		t.Fatal("wrong-length snapshot accepted")
	}
}

// TestPlayAllocBudget pins the allocation contract: what Play allocates is
// a per-session constant — the Playback (which holds the Rendering), the
// result's three per-chunk ledgers, one array for both fixed-capacity
// histories, and the frozen profile snapshot with its Profile —
// independent of how many chunks are played. A count, so it repeats
// exactly on any machine. (Before Playback the loop allocated one State
// per chunk and regrew both histories as they slid: 27 allocations for 10
// chunks, 77 for 50.)
func TestPlayAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	full, err := video.ByName("Soccer1")
	if err != nil {
		t.Fatal(err)
	}
	tr := flatTrace(3e6, 3600)
	alg := &fixedAlg{rung: 2}
	allocs := func(chunks int) float64 {
		v, err := full.Excerpt(0, chunks)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := Play(v, tr, alg, nil, Config{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(10), allocs(50)
	t.Logf("allocations per Play: %.0f at 10 chunks, %.0f at 50", short, long)
	if short != long {
		t.Fatalf("Play allocates per chunk: %.0f allocations for 10 chunks, %.0f for 50", short, long)
	}
	if long > 7 {
		t.Fatalf("%.0f allocations per session exceeds the budget of 7", long)
	}
}
