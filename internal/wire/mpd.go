package wire

import (
	"encoding/xml"
	"fmt"
	"strconv"
	"strings"
	"time"

	"sensei/internal/crowd"
	"sensei/internal/video"
)

// mpdMimeType is the one mime type a manifest names.
const mpdMimeType = "video/mp4"

// MPD is a minimal DASH media presentation description. The structure
// follows the DASH-IF layout (Period → AdaptationSet → Representation) with
// one SENSEI extension: a SenseiWeights element under each Representation
// carrying the profiled per-chunk sensitivity weights, exactly as §6
// describes augmenting the manifest.
type MPD struct {
	XMLName           xml.Name `xml:"MPD"`
	MediaPresentation string   `xml:"mediaPresentationDuration,attr"`
	Period            Period   `xml:"Period"`
}

// Period is the single playback period.
type Period struct {
	AdaptationSet AdaptationSet `xml:"AdaptationSet"`
}

// AdaptationSet groups the video representations.
type AdaptationSet struct {
	MimeType       string `xml:"mimeType,attr"`
	SegmentSeconds int    `xml:"senseiSegmentSeconds,attr"`
	// WeightEpoch is the sensitivity-profile epoch the embedded weights
	// were published at (0 = unprofiled legacy manifest). Clients compare
	// it against WeightEpochHeader on segment responses to detect
	// mid-stream refreshes.
	WeightEpoch     uint64           `xml:"senseiWeightEpoch,attr,omitempty"`
	Representations []Representation `xml:"Representation"`
}

// Representation is one ladder rung.
type Representation struct {
	ID        string `xml:"id,attr"`
	Bandwidth int    `xml:"bandwidth,attr"`
	// SenseiWeights is the paper's manifest extension: space-separated
	// per-chunk sensitivity weights. Legacy players ignore the unknown
	// element; SENSEI players parse it.
	SenseiWeights string `xml:"SenseiWeights,omitempty"`
}

// BuildMPDProfile renders the manifest for a video carrying an
// epoch-stamped weight snapshot.
func BuildMPDProfile(v *video.Video, weights []float64, epoch uint64) (*MPD, error) {
	if weights != nil && len(weights) != v.NumChunks() {
		return nil, fmt.Errorf("wire: %d weights for %d chunks", len(weights), v.NumChunks())
	}
	if weights == nil && epoch != 0 {
		return nil, fmt.Errorf("wire: weightless manifest at epoch %d", epoch)
	}
	var wAttr string
	if weights != nil {
		// One buffer for the whole attribute: "w.dddddd" plus a separator
		// is nine bytes for a weight under 10.
		var attr strings.Builder
		attr.Grow(9 * len(weights))
		var scratch [32]byte
		for i, w := range weights {
			if i > 0 {
				attr.WriteByte(' ')
			}
			attr.Write(strconv.AppendFloat(scratch[:0], w, 'f', 6, 64))
		}
		wAttr = attr.String()
	}
	reps := make([]Representation, len(v.Ladder))
	for i, kbps := range v.Ladder {
		reps[i] = Representation{
			ID:            strconv.Itoa(i),
			Bandwidth:     kbps * 1000,
			SenseiWeights: wAttr,
		}
	}
	total := int(v.Duration() / time.Second)
	return &MPD{
		MediaPresentation: fmt.Sprintf("PT%dM%dS", total/60, total%60), // ISO 8601
		Period: Period{
			AdaptationSet: AdaptationSet{
				MimeType:        mpdMimeType,
				SegmentSeconds:  int(video.ChunkDuration / time.Second),
				WeightEpoch:     epoch,
				Representations: reps,
			},
		},
	}, nil
}

// WeightEpoch returns the manifest's sensitivity-profile epoch (0 for a
// legacy manifest without the extension).
func (m *MPD) WeightEpoch() uint64 { return m.Period.AdaptationSet.WeightEpoch }

// Weights extracts the SENSEI weight vector from the manifest; it returns
// nil (no error) for a manifest without the extension — a legacy stream.
func (m *MPD) Weights() ([]float64, error) {
	reps := m.Period.AdaptationSet.Representations
	if len(reps) == 0 || reps[0].SenseiWeights == "" {
		return nil, nil
	}
	// FieldsSeq splits as strings.Fields does, leaving the fields in place;
	// BuildMPDProfile's one space between weights sizes the vector.
	text := reps[0].SenseiWeights
	out := make([]float64, 0, strings.Count(text, " ")+1)
	for f := range strings.FieldsSeq(text) {
		w, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("wire: weight %d: %w", len(out), err)
		}
		// The decode path is the trust boundary for wire-carried weights:
		// a NaN, non-positive or absurdly large value would flow straight
		// into the MPC objective and silently corrupt every plan, so the
		// manifest is rejected with the same contract every persistence
		// codec enforces (crowd.ValidWeight).
		if !crowd.ValidWeight(w) {
			return nil, fmt.Errorf("wire: weight %d is %v, want a value in (0, 10]", len(out), w)
		}
		out = append(out, w)
	}
	return out, nil
}

// Ladder reconstructs the bitrate ladder (kbps) from the manifest.
func (m *MPD) Ladder() []int {
	reps := m.Period.AdaptationSet.Representations
	out := make([]int, len(reps))
	for i, r := range reps {
		out[i] = r.Bandwidth / 1000
	}
	return out
}
