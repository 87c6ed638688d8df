package dash

import (
	"strings"
	"testing"

	"sensei/internal/video"
	"sensei/internal/wire"
)

func testVideo(t testing.TB) *video.Video {
	t.Helper()
	full, err := video.ByName("Soccer1")
	if err != nil {
		t.Fatal(err)
	}
	v, err := full.Excerpt(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestClientValidatesLadder(t *testing.T) {
	v := testVideo(t)
	type reps = []wire.Representation
	for _, tc := range []struct {
		name string
		edit func(reps) reps
		ok   bool
	}{
		{"matching", func(r reps) reps { return r }, true},
		// Ladder reads bandwidth in whole kbps, and so does the check.
		{"within a kbps", func(r reps) reps { r[0].Bandwidth += 999; return r }, true},
		{"short", func(r reps) reps { return r[:len(r)-1] }, false},
		{"mismatched", func(r reps) reps { r[0].Bandwidth += 1000; return r }, false},
	} {
		m, err := wire.BuildMPDProfile(v, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		as := &m.Period.AdaptationSet
		as.Representations = tc.edit(as.Representations)
		if err := validateLadder(v, m); (err == nil) != tc.ok {
			t.Fatalf("%s ladder: validateLadder = %v", tc.name, err)
		}
	}
}

// TestClientRejectsDisagreeingRungWeights: every rung of a manifest
// carries the weight vector and Weights reads rung 0's, so a manifest
// whose rungs disagree is refused rather than planned on whichever rung
// comes first.
func TestClientRejectsDisagreeingRungWeights(t *testing.T) {
	v := testVideo(t)
	mpd, err := wire.BuildMPDProfile(v, v.TrueSensitivity(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parseManifest(mpd.AppendMPD(nil), v); err != nil {
		t.Fatalf("consistent manifest refused: %v", err)
	}
	reps := mpd.Period.AdaptationSet.Representations
	for _, other := range []string{strings.TrimSpace(strings.Repeat("1 ", v.NumChunks())), ""} {
		reps[len(reps)-1].SenseiWeights = other
		if _, err := parseManifest(mpd.AppendMPD(nil), v); err == nil {
			t.Fatalf("manifest whose last rung carries %q accepted", other)
		}
	}
}
