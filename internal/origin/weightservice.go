package origin

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"sensei/internal/atomicfile"
	"sensei/internal/crowd"
	"sensei/internal/sensitivity"
	"sensei/internal/video"
)

// ProfileFunc computes per-chunk sensitivity weights for a video — in
// production the §4 crowdsourced campaign (crowd.Profiler), in tests a
// stub. It must be safe for concurrent calls on distinct videos. The same
// function also powers window refreshes: RefreshWindow hands it an excerpt
// of the video covering just the chunk window being re-profiled.
type ProfileFunc func(v *video.Video) ([]float64, error)

// WeightService is the versioned sensitivity-profile service: the origin's
// half of the live sensitivity plane. It keeps the old WeightStore's
// guarantees — singleflight cold-start profiling (however many manifest
// requests race on a cold video, the campaign runs at most once) and
// WeightDir persistence so restarts skip campaigns — and adds hot refresh:
// each video's profile lives in a sensitivity.Versioned holder, so a
// re-profiling campaign publishes a new epoch atomically while concurrent
// readers keep serving immutable snapshots. Epochs survive restarts via
// the persisted JSON.
type WeightService struct {
	dir     string // "" = memory only
	profile ProfileFunc
	logf    func(format string, args ...any) // nil discards

	mu      sync.Mutex
	entries map[string]*weightEntry

	computed  atomic.Int64
	loaded    atomic.Int64
	refreshed atomic.Int64
}

// weightEntry is one singleflight slot: the first getter closes done once
// holder/err are final; everyone else waits on done. After a successful
// resolve the holder carries every subsequent epoch. pub serializes the
// whole publish step — snapshot read, splice, epoch bump AND disk persist
// — so concurrent refreshes can neither lose a window update nor leave an
// older epoch's file on disk to win a restart.
type weightEntry struct {
	done   chan struct{}
	holder *sensitivity.Versioned
	err    error
	pub    sync.Mutex
}

// NewWeightService builds a service. dir may be "" for a memory-only
// cache; profile may be nil, in which case every video resolves to the
// epoch-0 unprofiled placeholder (legacy manifests); logf may be nil to
// discard operational logs.
func NewWeightService(dir string, profile ProfileFunc, logf func(format string, args ...any)) *WeightService {
	return &WeightService{dir: dir, profile: profile, logf: logf, entries: map[string]*weightEntry{}}
}

func (s *WeightService) log(format string, args ...any) {
	if s.logf != nil {
		s.logf(format, args...)
	}
}

// ProfileCalls reports how many times the profile function ran for a cold
// video — the number tests assert to prove singleflight and disk reuse.
func (s *WeightService) ProfileCalls() int64 { return s.computed.Load() }

// DiskLoads reports how many profiles were served from the on-disk cache.
func (s *WeightService) DiskLoads() int64 { return s.loaded.Load() }

// Refreshes reports how many epoch bumps (Publish/RefreshWindow) landed.
func (s *WeightService) Refreshes() int64 { return s.refreshed.Load() }

// Get returns the current profile snapshot for v, computing and persisting
// the first epoch on first use. Concurrent calls for a cold video share
// one computation. A failed computation is not cached: the next Get
// retries.
func (s *WeightService) Get(v *video.Video) (*sensitivity.Profile, error) {
	e, err := s.entry(v)
	if err != nil {
		return nil, err
	}
	p, _ := e.holder.Snapshot()
	return p, nil
}

// Source returns v's live profile holder as a sensitivity.Source, resolving
// the first epoch if needed. Consumers that want change notification (the
// fleet's refresh watchers, a push-capable origin) hold on to it instead of
// polling Get.
func (s *WeightService) Source(v *video.Video) (sensitivity.Source, error) {
	e, err := s.entry(v)
	if err != nil {
		return nil, err
	}
	return e.holder, nil
}

// Holder peeks at a video's live profile holder without triggering
// profiling: nil when the video is unresolved, still resolving, or failed.
// The origin caches a successful peek per catalog video, after which epoch
// stamping is entirely lock-free (a resolved holder is never replaced —
// refreshes publish into it).
func (s *WeightService) Holder(videoName string) *sensitivity.Versioned {
	s.mu.Lock()
	e, ok := s.entries[videoName]
	s.mu.Unlock()
	if !ok {
		return nil
	}
	select {
	case <-e.done:
	default:
		return nil // still resolving
	}
	if e.err != nil {
		return nil
	}
	return e.holder
}

// HolderOf returns v's live profile holder, resolving (profiling or
// disk-loading) the video first if it is cold. Unlike Holder it may block
// on a campaign; unlike Get it hands back the holder itself so callers can
// snapshot it lock-free forever after.
func (s *WeightService) HolderOf(v *video.Video) (*sensitivity.Versioned, error) {
	e, err := s.entry(v)
	if err != nil {
		return nil, err
	}
	return e.holder, nil
}

// EpochOf peeks at a video's current epoch without triggering profiling:
// 0 when the video is unresolved or unprofiled. Control-plane callers use
// it to stamp wire.WeightEpochHeader without ever paying a campaign (the
// segment path goes further and caches the Holder).
func (s *WeightService) EpochOf(videoName string) uint64 {
	h := s.Holder(videoName)
	if h == nil {
		return 0
	}
	_, epoch := h.Snapshot()
	return epoch
}

// Publish installs weights as v's next epoch, resolving the entry first if
// the video is still cold (so a refresh pushed before any manifest request
// still lands). The new snapshot is persisted and returned.
func (s *WeightService) Publish(v *video.Video, weights []float64) (*sensitivity.Profile, error) {
	if len(weights) != v.NumChunks() {
		return nil, fmt.Errorf("origin: publishing %d weights for %d chunks of %q", len(weights), v.NumChunks(), v.Name)
	}
	e, err := s.entry(v)
	if err != nil {
		return nil, err
	}
	e.pub.Lock()
	defer e.pub.Unlock()
	return s.publishLocked(e, v.Name, weights)
}

// publishLocked bumps the epoch and persists the new snapshot. Callers
// hold e.pub, so the disk file is always written in epoch order — a
// concurrent pair of publishes can never leave the older epoch on disk to
// win the next restart.
func (s *WeightService) publishLocked(e *weightEntry, videoName string, weights []float64) (*sensitivity.Profile, error) {
	p, err := e.holder.Publish(weights)
	if err != nil {
		return nil, fmt.Errorf("origin: publishing weights for %q: %w", videoName, err)
	}
	s.refreshed.Add(1)
	s.persist(p)
	return p, nil
}

// RefreshWindow re-profiles chunks [lo, hi) of v — the incremental §4
// campaign a live deployment runs as fresh crowd ratings arrive — splices
// the window into the current vector, renormalizes, and publishes the
// result as the next epoch. The campaign runs unlocked (it is the slow
// part and touches no shared state), but the read-splice-publish step is
// serialized per video, so concurrent window refreshes compose instead of
// silently losing one window.
func (s *WeightService) RefreshWindow(v *video.Video, lo, hi int) (*sensitivity.Profile, error) {
	if s.profile == nil {
		return nil, fmt.Errorf("origin: refresh of %q without a profile function", v.Name)
	}
	e, err := s.entry(v)
	if err != nil {
		return nil, err
	}
	clip, err := v.Excerpt(lo, hi)
	if err != nil {
		return nil, fmt.Errorf("origin: refresh window of %q: %w", v.Name, err)
	}
	window, err := s.profile(clip)
	if err != nil {
		return nil, fmt.Errorf("origin: re-profiling %q chunks [%d,%d): %w", v.Name, lo, hi, err)
	}
	if len(window) != hi-lo {
		return nil, fmt.Errorf("origin: window profiler returned %d weights for %d chunks", len(window), hi-lo)
	}
	e.pub.Lock()
	defer e.pub.Unlock()
	cur, _ := e.holder.Snapshot()
	if cur.Weights == nil {
		return nil, fmt.Errorf("origin: refresh of unprofiled video %q", v.Name)
	}
	next, err := sensitivity.Splice(cur.Weights, lo, window)
	if err != nil {
		return nil, fmt.Errorf("origin: refresh of %q: %w", v.Name, err)
	}
	return s.publishLocked(e, v.Name, next)
}

// entry resolves v's singleflight slot (with its live profile holder).
func (s *WeightService) entry(v *video.Video) (*weightEntry, error) {
	s.mu.Lock()
	if e, ok := s.entries[v.Name]; ok {
		s.mu.Unlock()
		<-e.done
		return e, e.err
	}
	e := &weightEntry{done: make(chan struct{})}
	s.entries[v.Name] = e
	s.mu.Unlock()

	e.holder, e.err = s.resolve(v)
	if e.err != nil {
		s.mu.Lock()
		delete(s.entries, v.Name)
		s.mu.Unlock()
	}
	close(e.done)
	return e, e.err
}

// resolve is the cache-miss path: disk first, then the profile function.
func (s *WeightService) resolve(v *video.Video) (*sensitivity.Versioned, error) {
	if s.dir != "" {
		p, err := readWeightFile(filepath.Join(s.dir, weightFileName(v.Name)), v)
		switch {
		case err == nil:
			s.loaded.Add(1)
			return sensitivity.NewVersionedAt(p)
		case !errors.Is(err, fs.ErrNotExist):
			// A corrupt or stale file is a miss, not a fatal error: fall
			// through to reprofiling, which overwrites it.
		}
	}
	if s.profile == nil {
		// Legacy origin: serve the epoch-0 unprofiled placeholder.
		return sensitivity.NewVersioned(v.Name, nil), nil
	}
	s.computed.Add(1)
	w, err := s.profile(v)
	if err != nil {
		return nil, fmt.Errorf("origin: profiling %q: %w", v.Name, err)
	}
	if len(w) != v.NumChunks() {
		return nil, fmt.Errorf("origin: profiler returned %d weights for %d chunks of %q", len(w), v.NumChunks(), v.Name)
	}
	h := sensitivity.NewVersioned(v.Name, w)
	p, _ := h.Snapshot()
	s.persist(p)
	return h, nil
}

// persist writes a snapshot to the weight dir, logging instead of failing:
// the campaign is the expensive part, and its result must not be thrown
// away because a file could not be written — only the next process start
// pays for the missing file.
func (s *WeightService) persist(p *sensitivity.Profile) {
	if s.dir == "" {
		return
	}
	if err := writeWeightFile(filepath.Join(s.dir, weightFileName(p.VideoName)), p); err != nil {
		s.log("origin: persisting weights for %q: %v (serving from memory)", p.VideoName, err)
	}
}

// --- on-disk codec ---

// weightFileJSON is the stable wire form of one video's cached profile.
// Version 1 (the pre-epoch WeightStore layout) has no epoch field and is
// read as epoch 1; version 2 carries the epoch so a restarted origin
// resumes the live plane where it left off.
type weightFileJSON struct {
	Version int       `json:"version"`
	Video   string    `json:"video"`
	Chunks  int       `json:"chunks"`
	Epoch   uint64    `json:"epoch,omitempty"`
	Weights []float64 `json:"weights"`
}

// Weight-file layout versions. legacyWeightFileVersion files predate the
// epoch field; weightFileVersion files carry it.
const (
	legacyWeightFileVersion = 1
	weightFileVersion       = 2
)

// weightFileName maps a video name to a filesystem-safe cache file name.
// Excerpt names like "Soccer1[0:6]" contain characters some filesystems
// dislike, so everything outside [A-Za-z0-9._-] becomes '_'.
func weightFileName(videoName string) string {
	var b strings.Builder
	for _, r := range videoName {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '_', r == '-':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String() + ".weights.json"
}

// writeWeightFile persists a profile atomically (internal/atomicfile) so a
// crashed origin never leaves a half-written profile behind.
func writeWeightFile(path string, p *sensitivity.Profile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("origin: weight dir: %w", err)
	}
	data, err := json.MarshalIndent(weightFileJSON{
		Version: weightFileVersion,
		Video:   p.VideoName,
		Chunks:  len(p.Weights),
		Epoch:   p.Epoch,
		Weights: p.Weights,
	}, "", "  ")
	if err != nil {
		return fmt.Errorf("origin: encoding weights for %q: %w", p.VideoName, err)
	}
	return atomicfile.Write(path, func(w io.Writer) error {
		if _, err := w.Write(append(data, '\n')); err != nil {
			return fmt.Errorf("origin: writing weights for %q: %w", p.VideoName, err)
		}
		return nil
	})
}

// readWeightFile loads and validates a persisted profile against the video
// it is supposed to describe. Any mismatch (version, name, chunk count,
// out-of-range weight, missing epoch) is an error; callers treat
// non-NotExist errors as a cache miss.
func readWeightFile(path string, v *video.Video) (*sensitivity.Profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var wf weightFileJSON
	if err := json.Unmarshal(data, &wf); err != nil {
		return nil, fmt.Errorf("origin: decoding %s: %w", path, err)
	}
	switch wf.Version {
	case legacyWeightFileVersion:
		// Epoch-less files written by the pre-refresh WeightStore: the
		// profile they hold is, by definition, the first epoch.
		if wf.Epoch != 0 {
			return nil, fmt.Errorf("origin: %s is version 1 but carries epoch %d", path, wf.Epoch)
		}
		wf.Epoch = 1
	case weightFileVersion:
		if wf.Epoch == 0 {
			return nil, fmt.Errorf("origin: %s is version 2 but has no epoch", path)
		}
	default:
		return nil, fmt.Errorf("origin: %s has version %d, want %d or %d", path, wf.Version, legacyWeightFileVersion, weightFileVersion)
	}
	if wf.Video != v.Name {
		return nil, fmt.Errorf("origin: %s is for video %q, want %q", path, wf.Video, v.Name)
	}
	if wf.Chunks != v.NumChunks() || len(wf.Weights) != v.NumChunks() {
		return nil, fmt.Errorf("origin: %s has %d weights for %d chunks of %q", path, len(wf.Weights), v.NumChunks(), v.Name)
	}
	for i, w := range wf.Weights {
		if !crowd.ValidWeight(w) {
			return nil, fmt.Errorf("origin: %s weight %d is %v", path, i, w)
		}
	}
	return &sensitivity.Profile{VideoName: wf.Video, Epoch: wf.Epoch, Weights: wf.Weights}, nil
}
