package origin

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sensei/internal/sensitivity"
	"sensei/internal/video"
)

// countingProfile wraps trueSensitivityProfile with an invocation counter
// and an optional artificial delay to widen race windows.
func countingProfile(calls *atomic.Int64, delay time.Duration) ProfileFunc {
	return func(v *video.Video) ([]float64, error) {
		calls.Add(1)
		if delay > 0 {
			time.Sleep(delay)
		}
		return v.TrueSensitivity(), nil
	}
}

// TestWeightServiceSingleflight is the acceptance-criteria proof: many
// concurrent manifest requests on a cold catalog run the profiler at most
// once per video.
func TestWeightServiceSingleflight(t *testing.T) {
	videos := []*video.Video{
		excerptOf(t, "Soccer1", 6),
		excerptOf(t, "Tank", 6),
	}
	var calls atomic.Int64
	o, base := startOrigin(t, Config{
		Catalog:      videos,
		Profile:      countingProfile(&calls, 30*time.Millisecond),
		Traces:       flatTraces(map[string]float64{"f": 1e9}),
		DefaultTrace: "f",
		TimeScale:    0.001,
	})

	const clientsPerVideo = 16
	var wg sync.WaitGroup
	errs := make(chan error, len(videos)*clientsPerVideo)
	for _, v := range videos {
		for k := 0; k < clientsPerVideo; k++ {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				resp, err := http.Get(base + "/v/" + name + "/manifest.mpd")
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("manifest %s: %s", name, resp.Status)
				}
			}(v.Name)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := calls.Load(); got != int64(len(videos)) {
		t.Fatalf("profiler ran %d times for %d videos", got, len(videos))
	}
	if got := o.store.ProfileCalls(); got != int64(len(videos)) {
		t.Fatalf("service counted %d profile calls", got)
	}
}

// TestWeightServicePersistence proves profiles survive a service restart
// via the on-disk codec — weights and epoch both — without re-profiling.
func TestWeightServicePersistence(t *testing.T) {
	dir := t.TempDir()
	v := excerptOf(t, "Soccer1", 6)

	var calls1 atomic.Int64
	s1 := NewWeightService(dir, countingProfile(&calls1, 0), nil)
	p1, err := s1.Get(v)
	if err != nil {
		t.Fatal(err)
	}
	if calls1.Load() != 1 {
		t.Fatalf("first service profiled %d times", calls1.Load())
	}
	if p1.Epoch != 1 {
		t.Fatalf("first profile at epoch %d", p1.Epoch)
	}

	var calls2 atomic.Int64
	s2 := NewWeightService(dir, countingProfile(&calls2, 0), nil)
	p2, err := s2.Get(v)
	if err != nil {
		t.Fatal(err)
	}
	if calls2.Load() != 0 {
		t.Fatalf("restarted service re-profiled %d times", calls2.Load())
	}
	if s2.DiskLoads() != 1 {
		t.Fatalf("disk loads %d", s2.DiskLoads())
	}
	if p2.Epoch != p1.Epoch {
		t.Fatalf("epoch changed across restart: %d vs %d", p2.Epoch, p1.Epoch)
	}
	if len(p1.Weights) != len(p2.Weights) {
		t.Fatalf("weights changed across restart: %d vs %d", len(p1.Weights), len(p2.Weights))
	}
	for i := range p1.Weights {
		if p1.Weights[i] != p2.Weights[i] {
			t.Fatalf("weight %d changed across restart: %v vs %v", i, p1.Weights[i], p2.Weights[i])
		}
	}
}

// TestWeightServiceEpochSurvivesRestart: a refreshed profile restarts at
// its bumped epoch, not back at 1 — the round-trip of the new JSON field.
func TestWeightServiceEpochSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	v := excerptOf(t, "Soccer1", 6)

	var calls atomic.Int64
	s1 := NewWeightService(dir, countingProfile(&calls, 0), nil)
	if _, err := s1.Get(v); err != nil {
		t.Fatal(err)
	}
	p, err := s1.Publish(v, v.TrueSensitivity())
	if err != nil {
		t.Fatal(err)
	}
	if p.Epoch != 2 {
		t.Fatalf("published epoch %d", p.Epoch)
	}
	if s1.Refreshes() != 1 {
		t.Fatalf("refresh counter %d", s1.Refreshes())
	}

	s2 := NewWeightService(dir, countingProfile(&calls, 0), nil)
	got, err := s2.Get(v)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 2 {
		t.Fatalf("restarted epoch %d, want 2", got.Epoch)
	}
}

// TestWeightServiceReadsLegacyEpochlessJSON: files written by the old
// WeightStore (version 1, no epoch) load as epoch 1 — a fleet of origins
// upgrades in place without re-running a single campaign.
func TestWeightServiceReadsLegacyEpochlessJSON(t *testing.T) {
	dir := t.TempDir()
	v := excerptOf(t, "Mountain", 6)
	w := v.TrueSensitivity()

	// Byte-for-byte what the pre-epoch WeightStore persisted.
	legacy, err := json.MarshalIndent(map[string]any{
		"version": 1,
		"video":   v.Name,
		"chunks":  len(w),
		"weights": w,
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, weightFileName(v.Name))
	if err := os.WriteFile(path, append(legacy, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	var calls atomic.Int64
	s := NewWeightService(dir, countingProfile(&calls, 0), nil)
	p, err := s.Get(v)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 0 {
		t.Fatalf("legacy file triggered %d re-profilings", calls.Load())
	}
	if p.Epoch != 1 {
		t.Fatalf("legacy file loaded at epoch %d, want 1", p.Epoch)
	}
	for i := range w {
		if p.Weights[i] != w[i] {
			t.Fatalf("legacy weight %d: %v vs %v", i, p.Weights[i], w[i])
		}
	}

	// A refresh of the upgraded entry persists the new layout…
	if _, err := s.Publish(v, w); err != nil {
		t.Fatal(err)
	}
	p2, err := ReadWeights(dir, v)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Epoch != 2 {
		t.Fatalf("rewritten file at epoch %d", p2.Epoch)
	}
	// …and a version-1 file smuggling an epoch is rejected as corrupt.
	bad, _ := json.Marshal(map[string]any{
		"version": 1, "video": v.Name, "chunks": len(w), "epoch": 7, "weights": w,
	})
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadWeights(dir, v); err == nil {
		t.Fatal("version-1 file with an epoch accepted")
	}
}

// TestOriginWeightsSurviveRestart is the same guarantee at the HTTP layer:
// a second origin process on the same weight dir serves manifests without
// re-profiling.
func TestOriginWeightsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	v := excerptOf(t, "Lava", 6)
	cfg := func(calls *atomic.Int64) Config {
		return Config{
			Catalog:      []*video.Video{v},
			Profile:      countingProfile(calls, 0),
			WeightDir:    dir,
			Traces:       flatTraces(map[string]float64{"f": 1e9}),
			DefaultTrace: "f",
			TimeScale:    0.001,
		}
	}

	var calls1 atomic.Int64
	o1, err := New(cfg(&calls1))
	if err != nil {
		t.Fatal(err)
	}
	srv1 := NewServer(o1)
	addr1, err := srv1.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr1 + "/v/" + v.Name + "/manifest.mpd")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if calls1.Load() != 1 {
		t.Fatalf("first origin profiled %d times", calls1.Load())
	}

	var calls2 atomic.Int64
	_, base2 := startOrigin(t, cfg(&calls2))
	resp, err = http.Get(base2 + "/v/" + v.Name + "/manifest.mpd")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("manifest after restart: %s", resp.Status)
	}
	if calls2.Load() != 0 {
		t.Fatalf("restarted origin re-profiled %d times", calls2.Load())
	}
}

// TestWeightServiceCorruptFile treats an unreadable or mismatched cache
// file as a miss and overwrites it with a fresh profile.
func TestWeightServiceCorruptFile(t *testing.T) {
	dir := t.TempDir()
	v := excerptOf(t, "Tank", 6)
	path := filepath.Join(dir, weightFileName(v.Name))
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	s := NewWeightService(dir, countingProfile(&calls, 0), nil)
	if _, err := s.Get(v); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("profiled %d times on corrupt file", calls.Load())
	}
	// The rewritten file must now be valid.
	if _, err := ReadWeights(dir, v); err != nil {
		t.Fatalf("rewritten file invalid: %v", err)
	}

	// A file for a different cut of the video (same name, wrong chunk
	// count) is also a miss.
	other := &video.Video{Name: v.Name, Chunks: v.Chunks[:4]}
	if _, err := ReadWeights(dir, other); err == nil {
		t.Fatal("chunk-count mismatch accepted")
	}

	// So is a well-formed file holding a weight outside crowd.ValidWeight.
	for _, bad := range []float64{0, -1, 11} {
		w := append([]float64(nil), v.TrueSensitivity()...)
		w[2] = bad
		data, _ := json.Marshal(map[string]any{
			"version": 2, "video": v.Name, "chunks": len(w), "epoch": 1, "weights": w,
		})
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadWeights(dir, v); err == nil {
			t.Fatalf("weight %v accepted", bad)
		}
	}
}

// TestWeightServiceErrorNotCached retries after a failed profile instead
// of wedging the video forever.
func TestWeightServiceErrorNotCached(t *testing.T) {
	v := excerptOf(t, "Girl", 6)
	var calls atomic.Int64
	s := NewWeightService("", func(v *video.Video) ([]float64, error) {
		if calls.Add(1) == 1 {
			return nil, fmt.Errorf("transient failure")
		}
		return v.TrueSensitivity(), nil
	}, nil)
	if _, err := s.Get(v); err == nil {
		t.Fatal("first Get should fail")
	}
	p, err := s.Get(v)
	if err != nil {
		t.Fatal(err)
	}
	if p.Weights == nil || calls.Load() != 2 {
		t.Fatalf("retry did not run: weights=%v calls=%d", p.Weights != nil, calls.Load())
	}
}

// TestWeightServiceNilProfile serves the epoch-0 placeholder (legacy
// weightless manifests) when no profile function is configured.
func TestWeightServiceNilProfile(t *testing.T) {
	v := excerptOf(t, "Girl", 6)
	s := NewWeightService("", nil, nil)
	p, err := s.Get(v)
	if err != nil {
		t.Fatal(err)
	}
	if p.Weights != nil || p.Epoch != 0 {
		t.Fatalf("nil profile produced %+v", p)
	}
	if s.EpochOf(v.Name) != 0 {
		t.Fatalf("unprofiled epoch %d", s.EpochOf(v.Name))
	}
}

// TestWeightServiceRejectsBadProfiler catches profile functions returning
// the wrong number of weights.
func TestWeightServiceRejectsBadProfiler(t *testing.T) {
	v := excerptOf(t, "Girl", 6)
	s := NewWeightService("", func(v *video.Video) ([]float64, error) {
		return []float64{1, 1}, nil
	}, nil)
	if _, err := s.Get(v); err == nil {
		t.Fatal("wrong-length weights accepted")
	}
}

// TestWeightServicePersistFailureServesFromMemory: the campaign result is
// never discarded because the cache file could not be written.
func TestWeightServicePersistFailureServesFromMemory(t *testing.T) {
	// A regular file as "directory" makes every write fail.
	notDir := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(notDir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	v := excerptOf(t, "Girl", 6)
	var calls atomic.Int64
	var logged atomic.Int64
	s := NewWeightService(filepath.Join(notDir, "weights"), countingProfile(&calls, 0),
		func(string, ...any) { logged.Add(1) })
	p, err := s.Get(v)
	if err != nil {
		t.Fatalf("persist failure surfaced as Get error: %v", err)
	}
	if len(p.Weights) != v.NumChunks() {
		t.Fatalf("got %d weights", len(p.Weights))
	}
	if logged.Load() == 0 {
		t.Fatal("persist failure was not logged")
	}
	// Still cached in memory: no re-profiling on the next Get.
	if _, err := s.Get(v); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("profiled %d times", calls.Load())
	}
}

// onlyWeightFile fails t unless dir holds the one entry name: a write that
// leaves a temp file beside the weight file is caught here.
func onlyWeightFile(t *testing.T, dir, name string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != name {
		t.Fatalf("weight dir holds %v; want only %s", entries, name)
	}
}

// writeTwoEpochs writes epochs 1 and 2 of v's weight file in a fresh
// directory and returns the directory, the file's path and its bytes.
func writeTwoEpochs(t *testing.T, v *video.Video) (dir, path string, prev []byte) {
	t.Helper()
	dir = t.TempDir()
	path = filepath.Join(dir, weightFileName(v.Name))
	for epoch := uint64(1); epoch <= 2; epoch++ {
		if err := writeWeightFile(path, &sensitivity.Profile{VideoName: v.Name, Epoch: epoch, Weights: v.TrueSensitivity()}); err != nil {
			t.Fatal(err)
		}
	}
	prev, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return dir, path, prev
}

// TestWeightFileWriteReplacesAtomically: writeWeightFile replaces a weight
// file whole, so the second write is what a reader sees, and no temp file
// is left beside it.
func TestWeightFileWriteReplacesAtomically(t *testing.T) {
	v := excerptOf(t, "Soccer1", 6)
	dir, path, _ := writeTwoEpochs(t, v)
	if p, err := ReadWeights(dir, v); err != nil || p.Epoch != 2 {
		t.Fatalf("after two writes: %v, %v; want epoch 2", p, err)
	}
	onlyWeightFile(t, dir, filepath.Base(path))
}

// TestWeightFileWriteFailureLeavesOriginal: a write that fails — at
// encoding, or at the rename that would install it — leaves what was at the
// path byte-identical and no temp file beside it.
func TestWeightFileWriteFailureLeavesOriginal(t *testing.T) {
	v := excerptOf(t, "Soccer1", 6)
	dir, path, prev := writeTwoEpochs(t, v)

	bad := append([]float64(nil), v.TrueSensitivity()...)
	bad[2] = math.NaN()
	if err := writeWeightFile(path, &sensitivity.Profile{VideoName: v.Name, Epoch: 3, Weights: bad}); err == nil {
		t.Fatal("a NaN weight was written")
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, prev) {
		t.Fatalf("failed encode changed the weight file: %v", err)
	}
	onlyWeightFile(t, dir, filepath.Base(path))

	// A non-empty directory where the file would go makes the rename fail
	// after the temp file is written.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	keep := filepath.Join(path, "keep")
	if err := os.MkdirAll(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(keep, prev, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := writeWeightFile(path, &sensitivity.Profile{VideoName: v.Name, Epoch: 3, Weights: v.TrueSensitivity()}); err == nil {
		t.Fatal("rename over a non-empty directory reported success")
	}
	if got, err := os.ReadFile(keep); err != nil || !bytes.Equal(got, prev) {
		t.Fatalf("failed rename changed what sat at the path: %v", err)
	}
	onlyWeightFile(t, dir, filepath.Base(path))
}

// TestWeightServiceRefreshWindow runs the incremental re-profiling path:
// the window is re-profiled through the same ProfileFunc (handed an
// excerpt), spliced, renormalized and published as the next epoch, while a
// snapshot taken before the refresh stays untouched.
func TestWeightServiceRefreshWindow(t *testing.T) {
	v := excerptOf(t, "Soccer1", 8)
	var windows atomic.Int64
	s := NewWeightService("", func(vv *video.Video) ([]float64, error) {
		if vv.NumChunks() < v.NumChunks() {
			windows.Add(1)
			// The re-profiled window discovers uniformly doubled
			// sensitivity.
			out := make([]float64, vv.NumChunks())
			for i := range out {
				out[i] = 2
			}
			return out, nil
		}
		return vv.TrueSensitivity(), nil
	}, nil)

	before, err := s.Get(v)
	if err != nil {
		t.Fatal(err)
	}
	beforeW := append([]float64(nil), before.Weights...)

	p, err := s.RefreshWindow(v, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if windows.Load() != 1 {
		t.Fatalf("window profiler ran %d times", windows.Load())
	}
	if p.Epoch != before.Epoch+1 {
		t.Fatalf("refresh moved epoch %d -> %d", before.Epoch, p.Epoch)
	}
	if len(p.Weights) != v.NumChunks() {
		t.Fatalf("refreshed vector has %d weights", len(p.Weights))
	}
	// Mean-1 invariant preserved.
	var sum float64
	for _, w := range p.Weights {
		sum += w
	}
	if mean := sum / float64(len(p.Weights)); mean < 0.999 || mean > 1.001 {
		t.Fatalf("refreshed mean %v", mean)
	}
	// The pre-refresh snapshot is immutable.
	for i := range beforeW {
		if before.Weights[i] != beforeW[i] {
			t.Fatalf("old snapshot mutated at %d", i)
		}
	}

	// Refreshing an unprofiled video is an error, as is a bad window.
	s2 := NewWeightService("", nil, nil)
	if _, err := s2.RefreshWindow(v, 0, 2); err == nil {
		t.Fatal("refresh without a profile function accepted")
	}
	if _, err := s.RefreshWindow(v, 5, 2); err == nil {
		t.Fatal("inverted window accepted")
	}
}

func TestWeightFileNameSanitizes(t *testing.T) {
	got := weightFileName("Soccer1[0:6]")
	if got != "Soccer1_0_6_.weights.json" {
		t.Fatalf("sanitized name %q", got)
	}
	if got := weightFileName("a/b\\c"); got != "a_b_c.weights.json" {
		t.Fatalf("sanitized name %q", got)
	}
}

// BenchmarkWeightRefresh measures the refresh hot path: publishing a new
// epoch (snapshot build + validation + atomic swap + waiter release + disk
// persist) on a warm service. This is the control-plane latency a live
// re-profiling pipeline adds on top of the campaign itself.
func BenchmarkWeightRefresh(b *testing.B) {
	full, err := video.ByName("Soccer1")
	if err != nil {
		b.Fatal(err)
	}
	v, err := full.Excerpt(0, 8)
	if err != nil {
		b.Fatal(err)
	}
	s := NewWeightService(b.TempDir(), func(vv *video.Video) ([]float64, error) {
		return vv.TrueSensitivity(), nil
	}, nil)
	if _, err := s.Get(v); err != nil {
		b.Fatal(err)
	}
	w := v.TrueSensitivity()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Publish(v, w); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWeightServiceConcurrentPublishPersistOrder: the per-video publish
// lock covers the disk write too, so however many publishes race, the
// file left on disk is the one for the final epoch — a restart can never
// regress behind what the origin served.
func TestWeightServiceConcurrentPublishPersistOrder(t *testing.T) {
	dir := t.TempDir()
	v := excerptOf(t, "Soccer1", 6)
	s := NewWeightService(dir, countingProfile(new(atomic.Int64), 0), nil)
	if _, err := s.Get(v); err != nil {
		t.Fatal(err)
	}
	w := v.TrueSensitivity()
	const publishers = 8
	var wg sync.WaitGroup
	for g := 0; g < publishers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := s.Publish(v, w); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	mem, err := s.Get(v)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := ReadWeights(dir, v)
	if err != nil {
		t.Fatal(err)
	}
	if disk.Epoch != mem.Epoch {
		t.Fatalf("disk at epoch %d, memory at %d: a restart would regress the epoch", disk.Epoch, mem.Epoch)
	}
	if mem.Epoch != 1+publishers*10 {
		t.Fatalf("final epoch %d", mem.Epoch)
	}
}

// TestWeightServiceConcurrentWindowRefreshesCompose: two concurrent
// window refreshes of disjoint windows must both land — the
// read-splice-publish step is serialized per video, so neither window is
// lost to a stale base vector.
func TestWeightServiceConcurrentWindowRefreshesCompose(t *testing.T) {
	v := excerptOf(t, "Soccer1", 8)
	s := NewWeightService("", func(vv *video.Video) ([]float64, error) {
		if vv.NumChunks() == v.NumChunks() {
			// Cold resolve: flat baseline.
			out := make([]float64, vv.NumChunks())
			for i := range out {
				out[i] = 1
			}
			return out, nil
		}
		// Window re-profile: strongly elevated sensitivity.
		out := make([]float64, vv.NumChunks())
		for i := range out {
			out[i] = 4
		}
		return out, nil
	}, nil)
	if _, err := s.Get(v); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, win := range [][2]int{{0, 2}, {6, 8}} {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			if _, err := s.RefreshWindow(v, lo, hi); err != nil {
				t.Errorf("refresh [%d,%d): %v", lo, hi, err)
			}
		}(win[0], win[1])
	}
	wg.Wait()
	p, err := s.Get(v)
	if err != nil {
		t.Fatal(err)
	}
	if p.Epoch != 3 {
		t.Fatalf("two refreshes landed at epoch %d", p.Epoch)
	}
	// Both windows elevated relative to the untouched middle — a lost
	// update would leave one of them back at baseline.
	mid := p.Weights[3]
	for _, i := range []int{0, 1, 6, 7} {
		if p.Weights[i] <= mid*1.5 {
			t.Fatalf("window chunk %d not elevated (%.3f vs mid %.3f): a refresh was lost\nweights: %v",
				i, p.Weights[i], mid, p.Weights)
		}
	}
}

// TestWeightServicePublishCopiesCallerSlice: Versioned.Publish keeps the
// slice it is handed, so WeightService.Publish, whose callers keep theirs
// (weightlib, the router, the fleet's scheduled refresh), hands it a copy:
// writing to the caller's slice afterwards leaves every snapshot intact.
func TestWeightServicePublishCopiesCallerSlice(t *testing.T) {
	v := excerptOf(t, "Soccer1", 6)
	s := NewWeightService("", trueSensitivityProfile, nil)
	w := []float64{2, 1, 1, 0.5, 0.5, 1}
	want := append([]float64(nil), w...)
	p, err := s.Publish(v, w)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w {
		w[i] = 9
	}
	cur, err := s.Get(v)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if p.Weights[i] != want[i] || cur.Weights[i] != want[i] {
			t.Fatalf("weight %d reads %v (returned) and %v (current) after the caller wrote its slice, want %v",
				i, p.Weights[i], cur.Weights[i], want[i])
		}
	}
}

// TestRefreshWindowAllocs pins what a warm, memory-only window refresh
// allocates, exactly: the excerpt handed to the profile function (its
// Video, its name and its chunks; its tables are windows of the video's),
// the vector Splice builds, and the Profile that publishes it. A copy of
// that vector in Publish, or tables of the excerpt's own, reads 6 or more.
func TestRefreshWindowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	v, err := video.ByName("Soccer1")
	if err != nil {
		t.Fatal(err)
	}
	s := NewWeightService("", trueSensitivityProfile, nil)
	if _, err := s.Get(v); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.RefreshWindow(v, 4, 8); err != nil {
			t.Fatal(err)
		}
	})
	const want = 5
	t.Logf("%.0f allocations per window refresh", allocs)
	if allocs != want {
		t.Fatalf("a window refresh allocates %.1f objects, want exactly %d", allocs, want)
	}
}
