package dash

import (
	"math"
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

// The manifest tests check wire's MPD codec from the side that consumes
// it: what the origin builds, this client parses back.

func TestMPDRoundTrip(t *testing.T) {
	v := testVideo(t)
	w := v.TrueSensitivity()
	mpd, err := wire.BuildMPD(v, w)
	if err != nil {
		t.Fatal(err)
	}
	data, err := mpd.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "SenseiWeights") {
		t.Fatal("manifest missing SENSEI extension")
	}
	parsed, err := wire.ParseMPD(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := parsed.Weights()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(w) {
		t.Fatalf("%d weights round-tripped of %d", len(got), len(w))
	}
	for i := range w {
		if math.Abs(got[i]-w[i]) > 1e-5 {
			t.Fatalf("weight %d: %v != %v", i, got[i], w[i])
		}
	}
	ladder := parsed.Ladder()
	for i, kbps := range v.Ladder {
		if ladder[i] != kbps {
			t.Fatalf("ladder mismatch: %v", ladder)
		}
	}
}

func TestMPDWithoutWeights(t *testing.T) {
	v := testVideo(t)
	mpd, err := wire.BuildMPD(v, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := mpd.Encode()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := wire.ParseMPD(data)
	if err != nil {
		t.Fatal(err)
	}
	w, err := parsed.Weights()
	if err != nil {
		t.Fatal(err)
	}
	if w != nil {
		t.Fatal("legacy manifest should have nil weights")
	}
}

func TestMPDValidatesWeights(t *testing.T) {
	v := testVideo(t)
	if _, err := wire.BuildMPD(v, []float64{1, 2}); err == nil {
		t.Fatal("wrong-length weights accepted")
	}
	bad := `<?xml version="1.0"?><MPD><Period><AdaptationSet>
	  <Representation id="0" bandwidth="300000"><SenseiWeights>1.0 -0.5</SenseiWeights></Representation>
	</AdaptationSet></Period></MPD>`
	m, err := wire.ParseMPD([]byte(bad))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Weights(); err == nil {
		t.Fatal("negative weight accepted")
	}
	garbled := strings.Replace(bad, "-0.5", "abc", 1)
	m2, err := wire.ParseMPD([]byte(garbled))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Weights(); err == nil {
		t.Fatal("non-numeric weight accepted")
	}
}

func TestISODuration(t *testing.T) {
	v := testVideo(t)
	mpd, err := wire.BuildMPD(v, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mpd.MediaPresentation != "PT0M24S" {
		t.Fatalf("duration %q", mpd.MediaPresentation)
	}
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
