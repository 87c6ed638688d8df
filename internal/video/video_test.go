package video

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"sensei/internal/stats"
)

func TestCatalogMatchesTable1(t *testing.T) {
	if len(Catalog) != 16 {
		t.Fatalf("catalog has %d videos, Table 1 has 16", len(Catalog))
	}
	genres := map[Genre]int{}
	for _, e := range Catalog {
		genres[e.Genre]++
	}
	if genres[GenreSports] != 7 || genres[GenreGaming] != 3 || genres[GenreNature] != 3 || genres[GenreAnimation] != 3 {
		t.Fatalf("genre distribution %v does not match Table 1 (7 sports, 3 gaming, 3 nature, 3 animation)", genres)
	}
}

func TestTestSetDeterministic(t *testing.T) {
	a := TestSet()
	b := TestSet()
	for i := range a {
		if a[i].Name != b[i].Name || a[i].NumChunks() != b[i].NumChunks() {
			t.Fatalf("video %d differs between generations", i)
		}
		for c := range a[i].Chunks {
			if a[i].Chunks[c].Attention != b[i].Chunks[c].Attention {
				t.Fatalf("%s chunk %d attention differs", a[i].Name, c)
			}
			if a[i].Chunks[c].SizeBits[0] != b[i].Chunks[c].SizeBits[0] {
				t.Fatalf("%s chunk %d size differs", a[i].Name, c)
			}
		}
	}
}

func TestByName(t *testing.T) {
	v, err := ByName("Soccer1")
	if err != nil {
		t.Fatal(err)
	}
	if v.Genre != GenreSports {
		t.Fatalf("Soccer1 genre = %v", v.Genre)
	}
	if _, err := ByName("NoSuchVideo"); err == nil {
		t.Fatal("expected error for unknown video")
	}
}

func TestDurationsMatchTable1(t *testing.T) {
	want := map[string]time.Duration{
		"Soccer1":      3*time.Minute + 20*time.Second,
		"Mountain":     1*time.Minute + 24*time.Second,
		"BigBuckBunny": 9*time.Minute + 56*time.Second,
	}
	for name, d := range want {
		v, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		// Chunking rounds up to a whole chunk.
		if v.Duration() < d || v.Duration() >= d+ChunkDuration {
			t.Errorf("%s duration %v, want about %v", name, v.Duration(), d)
		}
	}
}

func TestChunkFieldsInRange(t *testing.T) {
	for _, v := range TestSet() {
		for _, c := range v.Chunks {
			if c.Attention < 0 || c.Attention > 1 {
				t.Fatalf("%s chunk %d attention %v", v.Name, c.Index, c.Attention)
			}
			if c.Motion < 0 || c.Motion > 1 {
				t.Fatalf("%s chunk %d motion %v", v.Name, c.Index, c.Motion)
			}
			if c.Complexity < 0 || c.Complexity > 1 {
				t.Fatalf("%s chunk %d complexity %v", v.Name, c.Index, c.Complexity)
			}
			if len(c.SizeBits) != len(v.Ladder) {
				t.Fatalf("%s chunk %d has %d sizes, ladder %d", v.Name, c.Index, len(c.SizeBits), len(v.Ladder))
			}
		}
	}
}

func TestChunkSizesMonotoneInBitrate(t *testing.T) {
	for _, v := range TestSet() {
		for _, c := range v.Chunks {
			for r := 1; r < len(c.SizeBits); r++ {
				if c.SizeBits[r] <= c.SizeBits[r-1] {
					t.Fatalf("%s chunk %d: size at rung %d (%v) not above rung %d (%v)",
						v.Name, c.Index, r, c.SizeBits[r], r-1, c.SizeBits[r-1])
				}
			}
		}
	}
}

func TestChunkSizesNearNominal(t *testing.T) {
	for _, v := range TestSet() {
		for _, c := range v.Chunks {
			for r, kbps := range v.Ladder {
				nominal := float64(kbps) * 1000 * ChunkDuration.Seconds()
				ratio := c.SizeBits[r] / nominal
				if ratio < 0.5 || ratio > 2.0 {
					t.Fatalf("%s chunk %d rung %d: size %.0f is %.2fx nominal", v.Name, c.Index, r, c.SizeBits[r], ratio)
				}
			}
		}
	}
}

func TestTrueSensitivityScale(t *testing.T) {
	// Weights live on the absolute scale w = 0.45 + 1.35*attention, shared
	// by every video so excerpt ratings remain comparable.
	var grandSum, grandN float64
	for _, v := range TestSet() {
		w := v.TrueSensitivity()
		if len(w) != v.NumChunks() {
			t.Fatalf("%s: %d weights for %d chunks", v.Name, len(w), v.NumChunks())
		}
		for i, x := range w {
			if x < 0.45-1e-9 || x > 1.8+1e-9 {
				t.Fatalf("%s chunk %d weight %v outside [0.45, 1.8]", v.Name, i, x)
			}
			if math.Abs(x-(0.45+1.35*v.Chunks[i].Attention)) > 1e-12 {
				t.Fatalf("%s chunk %d weight not derived from attention", v.Name, i)
			}
			grandSum += x
			grandN++
		}
	}
	// The population average should sit near 1 so "1.0" means typical
	// sensitivity.
	if avg := grandSum / grandN; avg < 0.8 || avg > 1.2 {
		t.Fatalf("population mean weight %v drifted from 1", avg)
	}
}

func TestSensitivityVariesWithinVideo(t *testing.T) {
	// The paper's core premise: sensitivity varies substantially within a
	// video (Fig 3: many series with >40% max-min gap).
	var bigGap int
	for _, v := range TestSet() {
		w := v.TrueSensitivity()
		gap := (stats.Max(w) - stats.Min(w)) / stats.Min(w)
		if gap > 0.4 {
			bigGap++
		}
	}
	if bigGap < 12 {
		t.Fatalf("only %d/16 videos have >40%% sensitivity gap; content model too flat", bigGap)
	}
}

func TestAttentionNotMotion(t *testing.T) {
	// Attention and motion must decorrelate enough that motion-based
	// heuristics fail (§2.3). Require |corr| < 0.75 on every video and a
	// much weaker average.
	var sum float64
	for _, v := range TestSet() {
		att := make([]float64, v.NumChunks())
		mot := make([]float64, v.NumChunks())
		for i, c := range v.Chunks {
			att[i], mot[i] = c.Attention, c.Motion
		}
		r := stats.Pearson(att, mot)
		if math.Abs(r) > 0.75 {
			t.Errorf("%s: attention-motion correlation %v too strong", v.Name, r)
		}
		sum += r
	}
	if avg := sum / 16; math.Abs(avg) > 0.45 {
		t.Errorf("average attention-motion correlation %v too strong", avg)
	}
}

func TestExcerpt(t *testing.T) {
	v, _ := ByName("Soccer1")
	e, err := v.Excerpt(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if e.NumChunks() != 6 {
		t.Fatalf("excerpt has %d chunks", e.NumChunks())
	}
	if e.Chunks[0].Attention != v.Chunks[2].Attention {
		t.Fatal("excerpt content mismatch")
	}
	if e.Chunks[0].Index != 0 {
		t.Fatal("excerpt chunk indices not rebased")
	}
	// Excerpt weights are the parent's absolute weights, untouched.
	w := e.TrueSensitivity()
	parent := v.TrueSensitivity()
	for i := range w {
		if w[i] != parent[2+i] {
			t.Fatalf("excerpt weight %d differs from parent: %v vs %v", i, w[i], parent[2+i])
		}
	}
	if _, err := v.Excerpt(5, 5); err == nil {
		t.Fatal("expected error for empty excerpt")
	}
	if _, err := v.Excerpt(-1, 3); err == nil {
		t.Fatal("expected error for negative start")
	}
	if _, err := v.Excerpt(0, v.NumChunks()+1); err == nil {
		t.Fatal("expected error for overlong excerpt")
	}
}

func TestExcerptDoesNotAliasParent(t *testing.T) {
	v, _ := ByName("Tank")
	e, err := v.Excerpt(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	e.Chunks[0].Attention = -99
	if v.Chunks[0].Attention == -99 {
		t.Fatal("excerpt aliases parent chunk storage")
	}
}

// TestExcerptSharesParentTables: an excerpt's sensitivity and VMAF tables
// are windows of its parent's, so every window of every test-set video
// reads its parent's values bit for bit, and each window is capped at the
// excerpt's end, so an append to it can never write into the parent. A
// hand-assembled parent has no tables to share: its excerpt computes its
// own, the same values, and the parent's caches stay nil.
func TestExcerptSharesParentTables(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	check := func(parent, e *Video, from, to int) {
		t.Helper()
		w, pw := e.TrueSensitivity(), parent.TrueSensitivity()
		if len(w) != to-from || cap(w) != to-from {
			t.Fatalf("%s: sensitivity has len %d cap %d, want %d", e.Name, len(w), cap(w), to-from)
		}
		for i := range w {
			if !same(w[i], pw[from+i]) {
				t.Fatalf("%s: sensitivity %d is %v, parent's %v", e.Name, i, w[i], pw[from+i])
			}
			for r := range parent.Ladder {
				if got, want := e.VMAF(i, r), parent.VMAF(from+i, r); !same(got, want) {
					t.Fatalf("%s: VMAF(%d, %d) is %v, parent's %v", e.Name, i, r, got, want)
				}
			}
		}
		if e.vmaf != nil && cap(e.vmaf) != len(e.vmaf) {
			t.Fatalf("%s: VMAF table has len %d cap %d", e.Name, len(e.vmaf), cap(e.vmaf))
		}
	}
	for _, v := range TestSet() {
		for from := 0; from < v.NumChunks(); from++ {
			for to := from + 1; to <= v.NumChunks(); to++ {
				e, err := v.Excerpt(from, to)
				if err != nil {
					t.Fatal(err)
				}
				check(v, e, from, to)
			}
		}
	}

	v, err := ByName("Tank")
	if err != nil {
		t.Fatal(err)
	}
	hand := &Video{Name: "hand", Genre: v.Genre, Ladder: v.Ladder, Chunks: v.Chunks[:10]}
	e, err := hand.Excerpt(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if hand.sensitivity != nil || hand.vmaf != nil {
		t.Fatal("excerpting a hand-assembled video filled the parent's caches")
	}
	check(v, e, 3, 7)
}

func TestGenerateHonorsRuntime(t *testing.T) {
	f := func(seed uint64) bool {
		mins := int(seed%5) + 1
		v := Generate(Spec{Name: "x", Genre: GenreSports, Minutes: mins, Seed: seed})
		return v.NumChunks() == mins*60/4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateMinimumOneChunk(t *testing.T) {
	v := Generate(Spec{Name: "tiny", Genre: GenreNature, Seconds: 1, Seed: 1})
	if v.NumChunks() != 1 {
		t.Fatalf("got %d chunks", v.NumChunks())
	}
}

// Property: sensitivity weights are a pure function of attention — two
// generations of the same spec agree.
func TestSensitivityDeterministicProperty(t *testing.T) {
	f := func(seed uint64) bool {
		a := Generate(Spec{Name: "p", Genre: GenreGaming, Minutes: 1, Seed: seed})
		b := Generate(Spec{Name: "p", Genre: GenreGaming, Minutes: 1, Seed: seed})
		wa, wb := a.TrueSensitivity(), b.TrueSensitivity()
		for i := range wa {
			if wa[i] != wb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestHighLowBitrate(t *testing.T) {
	v, _ := ByName("Lava")
	if v.HighestBitrate() != 2850 || v.Ladder[0] != 300 {
		t.Fatalf("ladder endpoints wrong: %d..%d", v.Ladder[0], v.HighestBitrate())
	}
}
