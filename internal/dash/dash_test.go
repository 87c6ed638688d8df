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
	if err := validateLadder(v, v.Ladder); err != nil {
		t.Fatalf("matching ladder rejected: %v", err)
	}
	if err := validateLadder(v, v.Ladder[:len(v.Ladder)-1]); err == nil {
		t.Fatal("short ladder accepted")
	}
	wrong := append([]int(nil), v.Ladder...)
	wrong[0]++
	if err := validateLadder(v, wrong); err == nil {
		t.Fatal("mismatched ladder accepted")
	}
}

// TestClientRejectsDisagreeingRungWeights: every rung of a manifest
// carries the weight vector and Weights reads rung 0's, so a manifest
// whose rungs disagree is refused rather than planned on whichever rung
// comes first.
func TestClientRejectsDisagreeingRungWeights(t *testing.T) {
	v := testVideo(t)
	mpd, err := wire.BuildMPD(v, v.TrueSensitivity())
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
