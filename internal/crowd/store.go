package crowd

import (
	"encoding/json"
	"fmt"
	"io"
)

// This file persists profiled weights as a JSON weight library so a content
// provider can run the campaign once per video and ship the weights with
// the catalog (the paper's video-management-system integration, Fig 7).

// ValidWeight reports whether w is a plausible per-chunk sensitivity
// weight. Every persistence codec (the weight library here, the origin's
// per-video weight cache) enforces this same contract, so a change to the
// valid range happens in exactly one place.
func ValidWeight(w float64) bool { return w > 0 && w <= 10 }

// WeightLibraryVersion is the current library layout: version 2 carries a
// per-video profile epoch next to the weights. Version-0/1 files (the
// epoch-less layout this codec used to write) are still read, with every
// entry adopting epoch 1 — the same upgrade rule the origin's weight
// service applies to its per-video cache files.
const WeightLibraryVersion = 2

// WeightLibrary is a persisted collection of per-video weights — the
// artifact the CDN manifest builder consumes. Entries are epoch-stamped so
// a re-profiled library merges into a serving catalog as an explicit
// version bump rather than a silent overwrite.
type WeightLibrary struct {
	// Version is the library layout version (WeightLibraryVersion when
	// written by this code).
	Version int `json:"version,omitempty"`
	// Weights maps video name to its profiled per-chunk weights.
	Weights map[string][]float64 `json:"weights"`
	// Epochs maps video name to the profile epoch of its entry (1 when
	// absent — a legacy library).
	Epochs map[string]uint64 `json:"epochs,omitempty"`
}

// EpochOf returns the entry's profile epoch (1 for entries without an
// explicit stamp, 0 for videos not in the library).
func (l *WeightLibrary) EpochOf(name string) uint64 {
	if _, ok := l.Weights[name]; !ok {
		return 0
	}
	if e, ok := l.Epochs[name]; ok {
		return e
	}
	return 1
}

// Set installs weights for a video: a new entry starts at epoch 1, an
// existing one is refreshed with its epoch bumped. Refreshing an entry
// with a different chunk count is refused — that is a different cut of the
// video, not a new profile of the same one.
func (l *WeightLibrary) Set(name string, weights []float64) error {
	if len(weights) == 0 {
		return fmt.Errorf("crowd: empty weights for %q", name)
	}
	for i, w := range weights {
		if !ValidWeight(w) {
			return fmt.Errorf("crowd: weight %d for %q is %v", i, name, w)
		}
	}
	if old, ok := l.Weights[name]; ok && len(old) != len(weights) {
		return fmt.Errorf("crowd: refusing to replace %d-chunk entry %q with %d chunks", len(old), name, len(weights))
	}
	if l.Weights == nil {
		l.Weights = map[string][]float64{}
	}
	if l.Epochs == nil {
		l.Epochs = map[string]uint64{}
	}
	// EpochOf is 0 for a missing entry, so a fresh video lands at 1 and a
	// refresh bumps.
	l.Epochs[name] = l.EpochOf(name) + 1
	l.Weights[name] = weights
	return nil
}

// Save serializes the library as JSON in the current layout.
func (l *WeightLibrary) Save(w io.Writer) error {
	out := *l
	out.Version = WeightLibraryVersion
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&out); err != nil {
		return fmt.Errorf("crowd: encoding weight library: %w", err)
	}
	return nil
}

// ReadWeightLibrary parses a library written by Save (current or legacy
// epoch-less layout), validating every weight.
func ReadWeightLibrary(r io.Reader) (*WeightLibrary, error) {
	var l WeightLibrary
	if err := json.NewDecoder(r).Decode(&l); err != nil {
		return nil, fmt.Errorf("crowd: decoding weight library: %w", err)
	}
	if l.Version > WeightLibraryVersion {
		return nil, fmt.Errorf("crowd: library version %d is newer than supported %d", l.Version, WeightLibraryVersion)
	}
	for name, ws := range l.Weights {
		if len(ws) == 0 {
			return nil, fmt.Errorf("crowd: library entry %q empty", name)
		}
		for i, w := range ws {
			if !ValidWeight(w) {
				return nil, fmt.Errorf("crowd: library entry %q weight %d is %v", name, i, w)
			}
		}
	}
	for name, e := range l.Epochs {
		if _, ok := l.Weights[name]; !ok {
			return nil, fmt.Errorf("crowd: library stamps epoch %d on missing entry %q", e, name)
		}
		if e == 0 {
			return nil, fmt.Errorf("crowd: library entry %q at epoch 0", name)
		}
	}
	return &l, nil
}
