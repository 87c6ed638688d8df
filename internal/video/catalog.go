package video

// This file declares the 16-video test set mirroring Table 1 of the paper:
// names, genres and runtimes match; the content itself is generated by the
// synthetic storyline archetypes below. Each archetype encodes one of the
// paper's three sensitivity sources (§2.3): key storyline moments (tension
// build-up then peak), information moments (static but high attention, e.g.
// a scoreboard), and scenic lulls (pretty but low attention).

import (
	"fmt"

	"sensei/internal/stats"
)

// CatalogEntry describes one row of Table 1.
type CatalogEntry struct {
	Name          string
	Genre         Genre
	Minutes       int
	Seconds       int
	SourceDataset string
	Seed          uint64
}

// Catalog is the 16-video test set of Table 1, in paper order.
var Catalog = []CatalogEntry{
	{"Basket1", GenreSports, 3, 40, "LIVE-MOBILE", 0xa1},
	{"Soccer1", GenreSports, 3, 20, "LIVE-NFLX-II", 0xa2},
	{"Basket2", GenreSports, 3, 40, "YouTube-UGC", 0xa3},
	{"Soccer2", GenreSports, 3, 40, "YouTube-UGC", 0xa4},
	{"Discus", GenreSports, 3, 40, "YouTube-UGC", 0xa5},
	{"Wrestling", GenreSports, 3, 40, "YouTube-UGC", 0xa6},
	{"Motor", GenreSports, 3, 40, "YouTube-UGC", 0xa7},
	{"Tank", GenreGaming, 3, 40, "YouTube-UGC", 0xa8},
	{"FPS1", GenreGaming, 3, 40, "YouTube-UGC", 0xa9},
	{"FPS2", GenreGaming, 3, 40, "YouTube-UGC", 0xaa},
	{"Mountain", GenreNature, 1, 24, "LIVE-MOBILE", 0xab},
	{"Animal", GenreNature, 3, 40, "YouTube-UGC", 0xac},
	{"Space", GenreNature, 3, 40, "YouTube-UGC", 0xad},
	{"Girl", GenreAnimation, 3, 40, "YouTube-UGC", 0xae},
	{"Lava", GenreAnimation, 3, 40, "LIVE-NFLX-II", 0xaf},
	{"BigBuckBunny", GenreAnimation, 9, 56, "WaterlooSQOE-III", 0xb0},
}

// TestSet generates the full 16-video set of Table 1.
func TestSet() []*Video {
	out := make([]*Video, len(Catalog))
	for i, e := range Catalog {
		out[i] = Generate(Spec{Name: e.Name, Genre: e.Genre, Minutes: e.Minutes, Seconds: e.Seconds, Seed: e.Seed})
	}
	return out
}

// ByName generates the catalog video with the given name.
func ByName(name string) (*Video, error) {
	for _, e := range Catalog {
		if e.Name == name {
			return Generate(Spec{Name: e.Name, Genre: e.Genre, Minutes: e.Minutes, Seconds: e.Seconds, Seed: e.Seed}), nil
		}
	}
	return nil, fmt.Errorf("video: %q not in catalog", name)
}

// genreStory returns the genre archetype. The numeric ranges were chosen so
// that (a) attention varies substantially within every video, (b) motion and
// attention decorrelate in the specific ways the paper describes, and (c)
// nature videos have long low-attention scenic stretches.
func genreStory(g Genre, rng *stats.RNG) []segment {
	switch g {
	case GenreSports:
		return []segment{
			// Normal gameplay: very dynamic but routine — the LSTM-QoE trap.
			{chunks: 4 + rng.Intn(3), attention: [2]float64{0.25, 0.45}, motion: [2]float64{0.65, 0.9}, complexity: [2]float64{0.5, 0.75}},
			// Tension build-up to the key play (shoot & goal): attention ramps.
			{chunks: 3, attention: [2]float64{0.5, 0.98}, motion: [2]float64{0.6, 0.85}, complexity: [2]float64{0.5, 0.7}, peak: true},
			// Celebrate & replay, then scoreboard: low motion, high attention
			// (the "information moment").
			{chunks: 2, attention: [2]float64{0.7, 0.9}, motion: [2]float64{0.15, 0.35}, complexity: [2]float64{0.35, 0.55}},
			// Crowd shots / ads: highly dynamic and complex, low attention.
			{chunks: 2 + rng.Intn(2), attention: [2]float64{0.08, 0.22}, motion: [2]float64{0.7, 0.95}, complexity: [2]float64{0.7, 0.95}},
		}
	case GenreGaming:
		return []segment{
			// Exploration / traversal.
			{chunks: 3 + rng.Intn(3), attention: [2]float64{0.25, 0.45}, motion: [2]float64{0.55, 0.8}, complexity: [2]float64{0.5, 0.7}},
			// Firefight build-up and kill.
			{chunks: 3, attention: [2]float64{0.55, 0.95}, motion: [2]float64{0.7, 0.95}, complexity: [2]float64{0.6, 0.85}, peak: true},
			// Loot/supply screen: static, information-dense, high attention.
			{chunks: 2, attention: [2]float64{0.65, 0.88}, motion: [2]float64{0.08, 0.22}, complexity: [2]float64{0.3, 0.5}},
			// Respawn / menu transitions.
			{chunks: 1 + rng.Intn(2), attention: [2]float64{0.1, 0.25}, motion: [2]float64{0.2, 0.5}, complexity: [2]float64{0.3, 0.6}},
		}
	case GenreNature:
		return []segment{
			// Long scenic passes: beautiful, complex, low attention.
			{chunks: 3 + rng.Intn(2), attention: [2]float64{0.12, 0.3}, motion: [2]float64{0.1, 0.35}, complexity: [2]float64{0.55, 0.85}},
			// Sweeping camera pans / rapids / flocks: very dynamic, still
			// low attention (transitional filler).
			{chunks: 2 + rng.Intn(2), attention: [2]float64{0.1, 0.26}, motion: [2]float64{0.6, 0.9}, complexity: [2]float64{0.6, 0.9}},
			// A wildlife event (chase, eruption): attention spike.
			{chunks: 2, attention: [2]float64{0.55, 0.9}, motion: [2]float64{0.45, 0.7}, complexity: [2]float64{0.5, 0.75}, peak: true},
			// The reveal (e.g. the satellite photo of Earth): static,
			// high attention.
			{chunks: 2, attention: [2]float64{0.6, 0.85}, motion: [2]float64{0.05, 0.2}, complexity: [2]float64{0.4, 0.6}},
		}
	case GenreAnimation:
		return []segment{
			// Setup scenes.
			{chunks: 3 + rng.Intn(3), attention: [2]float64{0.25, 0.45}, motion: [2]float64{0.3, 0.55}, complexity: [2]float64{0.35, 0.6}},
			// Storyline climax (the bunny's trap springs): high attention.
			{chunks: 3, attention: [2]float64{0.55, 0.97}, motion: [2]float64{0.45, 0.75}, complexity: [2]float64{0.4, 0.65}, peak: true},
			// Comic relief / transition: busy but low-stakes.
			{chunks: 2, attention: [2]float64{0.15, 0.32}, motion: [2]float64{0.55, 0.85}, complexity: [2]float64{0.5, 0.8}},
		}
	default:
		return []segment{{chunks: 4, attention: [2]float64{0.2, 0.8}, motion: [2]float64{0.2, 0.8}, complexity: [2]float64{0.2, 0.8}}}
	}
}
