package wire

import (
	"encoding/xml"
	"errors"
	"math"
	"strings"
	"testing"

	"sensei/internal/video"
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

// uniformW builds an n-chunk weight vector of the given value.
func uniformW(n int, val float64) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = val
	}
	return w
}

func TestMPDRoundTrip(t *testing.T) {
	v := testVideo(t)
	w := v.TrueSensitivity()
	mpd, err := BuildMPDProfile(v, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	data := mpd.AppendMPD(nil)
	if !strings.Contains(string(data), "SenseiWeights") {
		t.Fatal("manifest missing SENSEI extension")
	}
	var parsed MPD
	if err := parsed.Parse(data); err != nil {
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
	mpd, err := BuildMPDProfile(v, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := mpd.AppendMPD(nil)
	var parsed MPD
	if err := parsed.Parse(data); err != nil {
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
	if _, err := BuildMPDProfile(v, []float64{1, 2}, 1); err == nil {
		t.Fatal("wrong-length weights accepted")
	}
	bad := `<?xml version="1.0"?><MPD><Period><AdaptationSet>
	  <Representation id="0" bandwidth="300000"><SenseiWeights>1.0 -0.5</SenseiWeights></Representation>
	</AdaptationSet></Period></MPD>`
	var m MPD
	if err := m.Parse([]byte(bad)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Weights(); err == nil {
		t.Fatal("negative weight accepted")
	}
	garbled := strings.Replace(bad, "-0.5", "abc", 1)
	if err := m.Parse([]byte(garbled)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Weights(); err == nil {
		t.Fatal("non-numeric weight accepted")
	}
}

func TestISODuration(t *testing.T) {
	v := testVideo(t)
	mpd, err := BuildMPDProfile(v, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mpd.MediaPresentation != "PT0M24S" {
		t.Fatalf("duration %q", mpd.MediaPresentation)
	}
}

// TestMPDRejectsPoisonedWeights is the manifest-side regression for the
// crowd.ValidWeight decode boundary: NaN and >10 weights used to parse
// straight through to the ABR.
func TestMPDRejectsPoisonedWeights(t *testing.T) {
	v := testVideo(t)
	good, err := BuildMPDProfile(v, uniformW(v.NumChunks(), 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	poison := func(weights string) *MPD {
		m := *good
		reps := append([]Representation(nil), good.Period.AdaptationSet.Representations...)
		for i := range reps {
			reps[i].SenseiWeights = weights
		}
		m.Period.AdaptationSet.Representations = reps
		return &m
	}
	cases := []struct {
		name, weights string
	}{
		{"nan", "NaN 1 1"},
		{"inf", "+Inf 1 1"},
		{"zero", "0 1 1"},
		{"negative", "-2 1 1"},
		{"huge", "400 1 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := poison(tc.weights).Weights(); err == nil {
				t.Fatalf("weights %q accepted", tc.weights)
			}
		})
	}
	// The epoch round-trips through the XML codec.
	encoded := good.AppendMPD(nil)
	var parsed MPD
	if err := parsed.Parse(encoded); err != nil {
		t.Fatal(err)
	}
	if parsed.WeightEpoch() != 1 {
		t.Fatalf("epoch %d after round-trip", parsed.WeightEpoch())
	}
	withEpoch, err := BuildMPDProfile(v, uniformW(v.NumChunks(), 1), 7)
	if err != nil {
		t.Fatal(err)
	}
	encoded = withEpoch.AppendMPD(nil)
	if err := parsed.Parse(encoded); err != nil {
		t.Fatal(err)
	}
	if parsed.WeightEpoch() != 7 {
		t.Fatalf("epoch %d after round-trip, want 7", parsed.WeightEpoch())
	}
	if _, err := BuildMPDProfile(v, nil, 3); err == nil {
		t.Fatal("weightless epoch-3 manifest accepted")
	}
}

// TestAppendMPDMatchesMarshalIndent: for every catalog video, with and
// without weights, at epochs 0, 1 and 7, AppendMPD writes encoding/xml's
// bytes and Parse reads them back as xml.Unmarshal does, and appending
// into a buffer that already has the room allocates nothing.
func TestAppendMPDMatchesMarshalIndent(t *testing.T) {
	for _, v := range video.TestSet() {
		for _, weights := range [][]float64{nil, v.TrueSensitivity()} {
			var first uint64 // the epoch BuildMPDProfile accepts with these weights
			if weights != nil {
				first = 1
			}
			for _, epoch := range []uint64{0, 1, 7} {
				m, err := BuildMPDProfile(v, weights, first)
				if err != nil {
					t.Fatal(err)
				}
				m.Period.AdaptationSet.WeightEpoch = epoch
				checkAppendMPD(t, m)
				if raceEnabled {
					continue
				}
				buf := m.AppendMPD(nil)
				if n := testing.AllocsPerRun(10, func() { buf = m.AppendMPD(buf[:0]) }); n != 0 {
					t.Fatalf("%s: AppendMPD into a %d-byte buffer allocates %.0f objects, want 0", v.Name, cap(buf), n)
				}
			}
		}
	}
}

// TestParseMPDRefusals: each XML feature the parser refuses has its own
// error, and each is a document xml.Unmarshal accepts, so the refusal is
// the parser's subset and not a syntax error.
func TestParseMPDRefusals(t *testing.T) {
	const rep = `<Representation id="0" bandwidth="300000"><SenseiWeights>1</SenseiWeights></Representation>`
	cases := []struct {
		name, doc string
		want      error
	}{
		{"cdata", `<MPD><Period><AdaptationSet><Representation id="0"><SenseiWeights><![CDATA[1]]></SenseiWeights></Representation></AdaptationSet></Period></MPD>`, errMPDCDATA},
		{"doctype", `<!DOCTYPE MPD><MPD/>`, errMPDDirective},
		{"processing instruction", `<MPD><?sensei weights?></MPD>`, errMPDProcInst},
		{"declaration not first", ` <?xml version="1.0"?><MPD/>`, errMPDProcInst},
		{"default namespace", `<MPD xmlns="urn:mpeg:dash:schema:mpd:2011"/>`, errMPDNamespace},
		{"prefixed name", `<MPD><dash:Period xmlns:dash="urn:x"/></MPD>`, errMPDNamespace},
		{"repeated Period", `<MPD><Period/><Period/></MPD>`, errMPDRepeated},
		{"repeated AdaptationSet", `<MPD><Period><AdaptationSet/><AdaptationSet/></Period></MPD>`, errMPDRepeated},
		{"repeated SenseiWeights", `<MPD><Period><AdaptationSet><Representation><SenseiWeights>1</SenseiWeights><SenseiWeights>2</SenseiWeights></Representation></AdaptationSet></Period></MPD>`, errMPDRepeated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var m MPD
			if err := xml.Unmarshal([]byte(tc.doc), &m); err != nil {
				t.Fatalf("xml.Unmarshal refuses the case: %v", err)
			}
			if err := m.Parse([]byte(tc.doc)); !errors.Is(err, tc.want) {
				t.Fatalf("Parse = %v, want %v", err, tc.want)
			}
		})
	}
	// Representation is not a singleton: a ladder repeats it.
	var m MPD
	if err := m.Parse([]byte(`<MPD><Period><AdaptationSet>` + rep + rep + `</AdaptationSet></Period></MPD>`)); err != nil {
		t.Fatal(err)
	}
}

// TestParseMPDAllocBudget pins what a session's manifest costs the
// allocator: Parse into a fresh MPD plus Weights on a full-length weighted
// Soccer1 manifest as the origin serves it. A count, not a time. Measured:
// 4, the rungs, the duration, the one weights string the rungs share and
// the weight vector (10 while the rungs grew by append, each string was
// copied and Weights split into a slice of fields; 204 with encoding/xml's
// Unmarshal). The budget is the reading.
func TestParseMPDAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the program's behalf")
	}
	const budget = 4
	v, err := video.ByName("Soccer1")
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildMPDProfile(v, v.TrueSensitivity(), 1)
	if err != nil {
		t.Fatal(err)
	}
	body := m.AppendMPD(nil)
	got := testing.AllocsPerRun(50, func() {
		var m MPD
		if err := m.Parse(body); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Weights(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations to parse a %d-byte manifest (budget %d)", got, len(body), budget)
	if got > budget {
		t.Fatalf("%.0f allocations exceed the budget of %d", got, budget)
	}
}
