package dash

import (
	"testing"

	"sensei/internal/crowd"
	"sensei/internal/sensitivity"
	"sensei/internal/video"
	"sensei/internal/wire"
)

// The client's trust boundary: a manifest and a GET /weights body are the
// two documents whose contents reach an ABR objective. Whatever bytes
// arrive, decoding must not panic, and anything it accepts must be a
// profile the planners can use blindly. The seed corpus under
// testdata/fuzz/ holds what the origin serves for the test video (weighted,
// unweighted, epoch-stamped) plus the malformed cases dash_test.go and
// refresh_test.go spell out.

func FuzzParseMPD(f *testing.F) {
	v := testVideo(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if mpd, err := wire.ParseMPD(data); err == nil {
			// The accessors the client calls on any manifest that parses.
			_ = validateLadder(v, mpd.Ladder())
			_, _ = mpd.Weights()
		}
		if prof, err := parseManifest(data, v); err == nil {
			checkAccepted(t, prof, v)
		}
	})
}

func FuzzParseWeights(f *testing.F) {
	v := testVideo(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		if prof, err := parseWeights(body, v); err == nil {
			checkAccepted(t, prof, v)
		}
	})
}

// checkAccepted fails unless prof is usable as is: for this video, and
// either the unprofiled epoch-0 placeholder or one valid weight per chunk
// at a positive epoch.
func checkAccepted(t *testing.T, prof *sensitivity.Profile, v *video.Video) {
	if prof.VideoName != v.Name {
		t.Fatalf("accepted a profile for %q", prof.VideoName)
	}
	if prof.Weights == nil {
		if prof.Epoch != 0 {
			t.Fatalf("accepted epoch %d without weights", prof.Epoch)
		}
		return
	}
	if prof.Epoch == 0 || len(prof.Weights) != v.NumChunks() {
		t.Fatalf("accepted %d weights for %d chunks at epoch %d", len(prof.Weights), v.NumChunks(), prof.Epoch)
	}
	for i, w := range prof.Weights {
		if !crowd.ValidWeight(w) {
			t.Fatalf("accepted weight %d = %v", i, w)
		}
	}
}
