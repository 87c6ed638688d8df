// Package sensitivity is the live sensitivity data plane: epoch-stamped,
// immutable per-video profile snapshots and the Source interface every
// consumer (simulator, DASH client, ABR planners, origin) reads them
// through.
//
// SENSEI's §4 pipeline computes per-chunk sensitivity weights once per
// video, but user sensitivity is dynamic: a production system re-profiles
// chunk windows as fresh crowd ratings arrive, and every active session
// must pick the new weights up mid-stream. The contract here makes that
// safe at scale:
//
//   - A Profile is immutable once published. Consumers may hold a snapshot
//     for as long as they like (an MPC planner holds one for the whole
//     plan), and a concurrent refresh can never tear it.
//   - Every Profile carries an Epoch. Epochs are strictly monotonic per
//     video: epoch 0 means "unprofiled" (nil weights, the legacy manifest
//     case), the first published profile is epoch 1, and every refresh
//     bumps it. Staleness is a single integer comparison, cheap enough to
//     ride on every segment response.
//   - A Source hands out the current snapshot. Consumers learn of a new
//     epoch by comparing it (the DASH client reads the epoch header on
//     every segment) and read one snapshot per decision.
package sensitivity

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sensei/internal/crowd"
)

// Profile is one immutable, epoch-stamped sensitivity snapshot for a video.
// Neither the struct nor the Weights slice is ever mutated after
// publication; a refresh publishes a whole new Profile.
type Profile struct {
	// VideoName identifies the profiled video.
	VideoName string
	// Epoch is the snapshot's version: 0 for the unprofiled placeholder,
	// strictly increasing across refreshes of the same video.
	Epoch uint64
	// Weights are the per-chunk sensitivity weights (mean ≈ 1), or nil for
	// an unprofiled video.
	Weights []float64
}

// Validate checks the profile invariants: a nil-weight profile must be
// epoch 0, a weighted one must be a later epoch with every weight in
// crowd.ValidWeight's range.
func (p *Profile) Validate() error {
	if p.Weights == nil {
		if p.Epoch != 0 {
			return fmt.Errorf("sensitivity: epoch %d profile of %q has no weights", p.Epoch, p.VideoName)
		}
		return nil
	}
	if p.Epoch == 0 {
		return fmt.Errorf("sensitivity: weighted profile of %q at epoch 0", p.VideoName)
	}
	for i, w := range p.Weights {
		if !crowd.ValidWeight(w) {
			return fmt.Errorf("sensitivity: %q epoch %d weight %d is %v", p.VideoName, p.Epoch, i, w)
		}
	}
	return nil
}

// Source yields epoch-stamped profile snapshots. Implementations must be
// safe for concurrent use; the returned Profile (including its Weights
// slice) must never be mutated afterwards.
type Source interface {
	// Snapshot returns the current profile and its epoch. The profile is
	// never nil; an unprofiled video yields the epoch-0 placeholder.
	Snapshot() (*Profile, uint64)
}

// --- Frozen: the legacy-slice adapter ---

// Frozen is the frozen-slice adapter: a Source whose profile never changes.
// It keeps every pre-refresh call site (player.Play's weights argument, the
// facade's Stream) on the Source contract without behavior change.
type Frozen struct{ p *Profile }

// Freeze wraps a plain weight slice as an immutable single-epoch Source.
// nil weights freeze to the epoch-0 unprofiled placeholder; non-nil
// weights freeze at epoch 1.
func Freeze(videoName string, weights []float64) *Frozen {
	p := &Profile{VideoName: videoName}
	if weights != nil {
		p.Epoch = 1
		p.Weights = weights
	}
	return &Frozen{p: p}
}

// Snapshot implements Source.
func (f *Frozen) Snapshot() (*Profile, uint64) { return f.p, f.p.Epoch }

// --- Versioned: the live holder ---

// Versioned is a live profile holder: readers take lock-free snapshots,
// writers publish whole new profiles with an atomic epoch bump. It is the
// building block of the origin's versioned weight service.
type Versioned struct {
	mu      sync.Mutex // serializes publishers
	profile atomic.Pointer[Profile]
}

// NewVersioned starts a holder for videoName. With nil weights it starts at
// the epoch-0 unprofiled placeholder; otherwise at epoch 1.
func NewVersioned(videoName string, weights []float64) *Versioned {
	v := &Versioned{}
	p := &Profile{VideoName: videoName}
	if weights != nil {
		p.Epoch = 1
		p.Weights = append([]float64(nil), weights...)
	}
	v.profile.Store(p)
	return v
}

// NewVersionedAt starts a holder from a recovered snapshot (e.g. a
// persisted profile whose epoch survived a restart).
func NewVersionedAt(p *Profile) (*Versioned, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	v := &Versioned{}
	v.profile.Store(p)
	return v, nil
}

// Snapshot implements Source.
func (v *Versioned) Snapshot() (*Profile, uint64) {
	p := v.profile.Load()
	return p, p.Epoch
}

// Publish installs weights as the next epoch and returns the new snapshot.
// The swap is atomic: a concurrent Snapshot sees either the old or the new
// profile, never a mix. Publish takes ownership of weights: the snapshot
// holds the slice itself, so the caller must not write to it afterwards
// (a caller that keeps the slice hands over a copy).
func (v *Versioned) Publish(weights []float64) (*Profile, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	old := v.profile.Load()
	next := &Profile{VideoName: old.VideoName, Epoch: old.Epoch + 1, Weights: weights}
	if err := next.Validate(); err != nil {
		return nil, err
	}
	if old.Weights != nil && len(weights) != len(old.Weights) {
		return nil, fmt.Errorf("sensitivity: refresh of %q changes chunk count %d -> %d",
			next.VideoName, len(old.Weights), len(weights))
	}
	v.profile.Store(next)
	return next, nil
}

// --- Script: deterministic epoch flips for tests ---

// ScriptStep is one leg of a script: serve Weights for Chunks consecutive
// Snapshot calls (the last step may set Chunks 0 for "forever").
type ScriptStep struct {
	Weights []float64
	Chunks  int
}

// script is a Source that flips through a fixed sequence of profiles,
// advancing after a scripted number of Snapshot calls. Both player.Play and
// dash.Client take exactly one Snapshot per chunk decision, so a script is
// the deterministic way to land an epoch flip on a specific chunk in either
// — the parity contract's mid-stream-refresh extension scripts the same
// flip into both and demands identical rung sequences.
//
// Unlike the other sources, Snapshot advances the script clock; a script is
// single-session scratch, not a shared holder.
type script struct {
	mu        sync.Mutex
	videoName string
	steps     []ScriptStep
	profiles  []*Profile
	idx       int
	served    int
}

// NewScript builds a scripted source over the given steps. Each step's
// weights must be non-nil and the same length.
func NewScript(videoName string, steps ...ScriptStep) (Source, error) {
	if len(steps) == 0 {
		return nil, fmt.Errorf("sensitivity: script for %q has no steps", videoName)
	}
	s := &script{videoName: videoName, steps: steps}
	for i, step := range steps {
		p := &Profile{VideoName: videoName, Epoch: uint64(i + 1), Weights: step.Weights}
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("sensitivity: script step %d: %w", i, err)
		}
		if len(step.Weights) != len(steps[0].Weights) {
			return nil, fmt.Errorf("sensitivity: script step %d has %d weights, step 0 has %d",
				i, len(step.Weights), len(steps[0].Weights))
		}
		// A non-final step without a positive duration would pin the
		// script there forever, silently making later steps unreachable —
		// a parity test written that way would pass without exercising
		// any flip.
		if i < len(steps)-1 && step.Chunks <= 0 {
			return nil, fmt.Errorf("sensitivity: script step %d of %d needs Chunks > 0", i, len(steps))
		}
		s.profiles = append(s.profiles, p)
	}
	return s, nil
}

// Snapshot implements Source, advancing the script clock by one call.
func (s *script) Snapshot() (*Profile, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.idx < len(s.steps)-1 && s.steps[s.idx].Chunks > 0 && s.served >= s.steps[s.idx].Chunks {
		s.idx++
		s.served = 0
	}
	s.served++
	p := s.profiles[s.idx]
	return p, p.Epoch
}

// --- window refresh arithmetic ---

// Splice merges a re-profiled chunk window into a full weight vector and
// renormalizes the result to mean 1 (the invariant §4's ridge solver
// establishes for whole-video campaigns). base is not mutated; the result
// is a fresh slice ready for Versioned.Publish.
func Splice(base []float64, lo int, window []float64) ([]float64, error) {
	if lo < 0 || lo+len(window) > len(base) {
		return nil, fmt.Errorf("sensitivity: window [%d:%d) outside %d chunks", lo, lo+len(window), len(base))
	}
	if len(window) == 0 {
		return nil, fmt.Errorf("sensitivity: empty refresh window")
	}
	out := append([]float64(nil), base...)
	copy(out[lo:], window)
	var sum float64
	for _, w := range out {
		if !crowd.ValidWeight(w) {
			return nil, fmt.Errorf("sensitivity: spliced weight %v out of range", w)
		}
		sum += w
	}
	mean := sum / float64(len(out))
	for i := range out {
		out[i] /= mean
	}
	// Renormalization can push a near-limit weight past the (0,10] bound
	// (a low-sensitivity window shrinks the mean and inflates everything
	// else); validate the vector that will actually be published, so the
	// failure names the refresh — not a later publish — as the cause.
	for i, w := range out {
		if !crowd.ValidWeight(w) {
			return nil, fmt.Errorf("sensitivity: weight %d is %v after splice renormalization", i, w)
		}
	}
	return out, nil
}
