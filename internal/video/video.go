// Package video models the source-video substrate of SENSEI.
//
// The paper's evaluation uses 16 real videos drawn from four public QoE
// datasets (Table 1). Those assets are not redistributable, so this package
// provides a deterministic synthetic content model for the same titles,
// genres and lengths. Each video exposes three per-chunk signals:
//
//   - Attention: the latent ground-truth driver of quality sensitivity
//     (key storyline moments, information moments, scenic lulls — the three
//     sources identified in §2.3 of the paper);
//   - Motion: temporal dynamics, the signal LSTM-QoE-style models key on;
//   - Complexity: spatial complexity, the signal pixel-quality metrics
//     (VMAF/QP proxies) and encoders key on.
//
// Crucially, attention is correlated with but distinct from motion and
// complexity: ads and camera scans are dynamic yet low-attention, while a
// quiet scoreboard change is static yet high-attention. This mismatch is the
// paper's core observation and is what breaks content-blind QoE models.
package video

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"sensei/internal/stats"
)

// ChunkDuration is the fixed segment length used throughout the paper (§2.4,
// §7.1): every video is chopped into 4-second chunks.
const ChunkDuration = 4 * time.Second

// DefaultLadder is the paper's encoding ladder (§7.1): five H.264 bitrates
// corresponding to 240p–1080p on YouTube, in kilobits per second.
var DefaultLadder = []int{300, 750, 1200, 1850, 2850}

// Genre classifies a source video, mirroring Table 1.
type Genre string

// Genres used by the paper's test set.
const (
	GenreSports    Genre = "Sports"
	GenreGaming    Genre = "Gaming"
	GenreNature    Genre = "Nature"
	GenreAnimation Genre = "Animation"
)

// Chunk is one 4-second segment of a source video at all ladder rungs.
type Chunk struct {
	// Index is the position of the chunk within the video, starting at 0.
	Index int
	// SizeBits holds the encoded size in bits for each ladder rung, in the
	// same order as the video's Ladder. Sizes vary around bitrate*duration
	// with content-dependent VBR jitter.
	SizeBits []float64
	// Attention in [0,1] is the latent ground-truth attention level: how
	// closely users watch this chunk, and therefore how sensitive they are
	// to quality incidents during it.
	Attention float64
	// Motion in [0,1] is the temporal-dynamics proxy (what STRRED-like
	// metrics and LSTM-QoE respond to).
	Motion float64
	// Complexity in [0,1] is the spatial-complexity proxy (what VMAF/QP-like
	// metrics respond to, and what inflates encoded sizes).
	Complexity float64
}

// Video is a source video plus its synthetic content model.
type Video struct {
	// Name is the title from Table 1, e.g. "Soccer1".
	Name string
	// Genre is the Table 1 genre.
	Genre Genre
	// Ladder lists available bitrates in kbps, ascending.
	Ladder []int
	// Chunks holds the per-chunk content model.
	Chunks []Chunk

	// Caches derived from Ladder and Chunks, which must not change once
	// Generate or Excerpt has filled them (an excerpt's may be windows of
	// its parent's).
	sensitivity []float64 // cached normalized weights
	vmaf        []float64 // cached VMAF proxies, [chunk*len(Ladder)+rung]
}

// NumChunks returns the number of 4-second chunks.
func (v *Video) NumChunks() int { return len(v.Chunks) }

// Duration returns the total playback duration.
func (v *Video) Duration() time.Duration {
	return time.Duration(len(v.Chunks)) * ChunkDuration
}

// HighestBitrate returns the top ladder rung in kbps.
func (v *Video) HighestBitrate() int { return v.Ladder[len(v.Ladder)-1] }

// ChunkSizeBits returns the encoded size in bits of chunk i at ladder rung r.
func (v *Video) ChunkSizeBits(i, r int) float64 {
	return v.Chunks[i].SizeBits[r]
}

// TrueSensitivity returns the latent per-chunk sensitivity weights w*_i on
// an absolute scale shared by all videos: w = 0.45 + 1.35·attention, so a
// fully attention-grabbing moment weighs 1.8 and filler weighs ~0.5, with
// 1.0 the population-average sensitivity. The absolute scale matters: a
// rater shown a 24-second excerpt reacts to the content's inherent
// importance, not to a whole-video renormalization they never saw.
//
// This is the hidden ground truth the crowdsourcing pipeline tries to
// recover; production code must never read it directly (only the mos
// package, which plays the role of real users, does).
func (v *Video) TrueSensitivity() []float64 {
	if v.sensitivity == nil {
		// Hand-assembled videos fill the cache on first use; Generate and
		// Excerpt precompute it so the concurrent readers of the parallel
		// experiment lab never write.
		v.computeSensitivity()
	}
	return v.sensitivity
}

// computeSensitivity fills the sensitivity cache from the attention model.
func (v *Video) computeSensitivity() {
	w := make([]float64, len(v.Chunks))
	for i, c := range v.Chunks {
		// The floor keeps every chunk mattering at least somewhat; the
		// slope creates the 40-120% max-min QoE gaps observed in Fig 3.
		w[i] = 0.45 + 1.35*c.Attention
	}
	v.sensitivity = w
}

// VMAFProxy returns a perceptual visual-quality score in [0,1] for a chunk
// of spatial complexity c delivered at bitrateKbps on the given ladder. It
// is monotone increasing in bitrate, reaches 1.0 at the ladder top, and
// penalizes complex content harder at low bitrates (as VMAF does).
func VMAFProxy(bitrateKbps, topKbps float64, complexity float64) float64 {
	if bitrateKbps <= 0 || topKbps <= 0 {
		return 0
	}
	ratio := bitrateKbps / topKbps
	if ratio > 1 {
		ratio = 1
	}
	// Exponent grows with complexity: complex chunks lose more quality when
	// starved of bits.
	exp := 0.30 + 0.45*complexity
	return math.Pow(ratio, exp)
}

// VMAF returns the VMAF proxy of chunk i at ladder rung r. ABR planners
// read it millions of times per session, so Generate and Excerpt
// precompute the whole table; a hand-assembled video computes each value
// on demand instead of filling a cache, so concurrent readers never write.
func (v *Video) VMAF(i, r int) float64 {
	if v.vmaf != nil {
		return v.vmaf[i*len(v.Ladder)+r]
	}
	return v.vmafAt(i, r)
}

func (v *Video) vmafAt(i, r int) float64 {
	return VMAFProxy(float64(v.Ladder[r]), float64(v.HighestBitrate()), v.Chunks[i].Complexity)
}

// computeVMAF fills the VMAF table from the ladder and chunk complexity.
func (v *Video) computeVMAF() {
	nR := len(v.Ladder)
	t := make([]float64, len(v.Chunks)*nR)
	for i := range v.Chunks {
		for r := range v.Ladder {
			t[i*nR+r] = v.vmafAt(i, r)
		}
	}
	v.vmaf = t
}

// Excerpt returns a new Video covering chunks [from, to). Chunks are
// copied by value and re-indexed from 0; sensitivity keeps the parent's
// absolute per-chunk scale, not renormalized over the excerpt. The derived
// tables are capped windows of the parent's, which are per chunk and never
// written, so an excerpt reads them bit for bit; a hand-assembled parent
// lacks them, and the excerpt computes its own. It returns an error for
// an empty or out-of-bounds range.
func (v *Video) Excerpt(from, to int) (*Video, error) {
	if from < 0 || to > len(v.Chunks) || from >= to {
		return nil, fmt.Errorf("video: invalid excerpt [%d,%d) of %q with %d chunks", from, to, v.Name, len(v.Chunks))
	}
	out := &Video{
		Name:   v.Name + "[" + strconv.Itoa(from) + ":" + strconv.Itoa(to) + "]",
		Genre:  v.Genre,
		Ladder: v.Ladder,
		Chunks: append([]Chunk(nil), v.Chunks[from:to]...),
	}
	for i := range out.Chunks {
		out.Chunks[i].Index = i
	}
	if nR := len(v.Ladder); v.sensitivity != nil && v.vmaf != nil {
		out.sensitivity, out.vmaf = v.sensitivity[from:to:to], v.vmaf[from*nR:to*nR:to*nR]
	} else {
		out.computeSensitivity()
		out.computeVMAF()
	}
	return out, nil
}

// segment is a storyline building block used by the generator.
type segment struct {
	chunks     int
	attention  [2]float64 // lo, hi
	motion     [2]float64
	complexity [2]float64
	// peak, when true, ramps attention linearly from lo to hi across the
	// segment (tension build-up) instead of sampling uniformly.
	peak bool
}

// Spec declares a synthetic video to generate.
type Spec struct {
	// Name and Genre mirror Table 1.
	Name  string
	Genre Genre
	// Minutes and Seconds give the Table 1 runtime.
	Minutes, Seconds int
	// Seed makes generation deterministic per title.
	Seed uint64
}

// durationChunks converts the spec runtime to a chunk count (rounded up).
func (s Spec) durationChunks() int {
	total := s.Minutes*60 + s.Seconds
	n := total / int(ChunkDuration/time.Second)
	if total%int(ChunkDuration/time.Second) != 0 {
		n++
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Generate builds the synthetic video for the spec.
func Generate(spec Spec) *Video {
	rng := stats.NewRNG(spec.Seed ^ 0x5ea5e1)
	n := spec.durationChunks()
	story := genreStory(spec.Genre, rng.Fork())
	chunks := make([]Chunk, 0, n)
	for len(chunks) < n {
		for _, seg := range story {
			for k := 0; k < seg.chunks && len(chunks) < n; k++ {
				var att float64
				if seg.peak {
					frac := float64(k) / float64(maxInt(seg.chunks-1, 1))
					att = seg.attention[0] + frac*(seg.attention[1]-seg.attention[0])
				} else {
					att = rng.Range(seg.attention[0], seg.attention[1])
				}
				c := Chunk{
					Index:      len(chunks),
					Attention:  stats.Clamp(att+0.04*rng.Norm(), 0, 1),
					Motion:     stats.Clamp(rng.Range(seg.motion[0], seg.motion[1])+0.05*rng.Norm(), 0, 1),
					Complexity: stats.Clamp(rng.Range(seg.complexity[0], seg.complexity[1])+0.05*rng.Norm(), 0, 1),
				}
				chunks = append(chunks, c)
			}
			if len(chunks) >= n {
				break
			}
		}
	}
	v := &Video{Name: spec.Name, Genre: spec.Genre, Ladder: DefaultLadder, Chunks: chunks}
	fillSizes(v, rng.Fork())
	v.computeSensitivity()
	v.computeVMAF()
	return v
}

// fillSizes assigns VBR chunk sizes: nominal bitrate*duration scaled by
// content complexity/motion (busier content encodes larger at equal quality)
// plus lognormal-ish jitter.
func fillSizes(v *Video, rng *stats.RNG) {
	dur := ChunkDuration.Seconds()
	for i := range v.Chunks {
		c := &v.Chunks[i]
		c.SizeBits = make([]float64, len(v.Ladder))
		// Content factor in [0.8, 1.25]: complex or high-motion chunks cost
		// more bits at the same rung (encoders overshoot on them).
		content := 0.8 + 0.3*c.Complexity + 0.15*c.Motion
		for r, kbps := range v.Ladder {
			jitter := stats.Clamp(1+0.08*rng.Norm(), 0.75, 1.3)
			c.SizeBits[r] = float64(kbps) * 1000 * dur * content * jitter
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
