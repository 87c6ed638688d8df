package trace

import (
	"math"
	"testing"
	"testing/quick"

	"sensei/internal/stats"
)

func TestGenerateDeterministic(t *testing.T) {
	spec := GenSpec{Name: "a", Kind: KindHSDPA, MeanBps: 1e6, Seconds: 120, Seed: 7}
	a, b := Generate(spec), Generate(spec)
	for i := range a.BitsPerSecond {
		if a.BitsPerSecond[i] != b.BitsPerSecond[i] {
			t.Fatalf("sample %d differs", i)
		}
	}
}

func TestGenerateHitsTargetMean(t *testing.T) {
	for _, kind := range []Kind{KindFCC, KindHSDPA} {
		for _, mean := range []float64{0.3e6, 1e6, 5e6} {
			tr := Generate(GenSpec{Name: "x", Kind: kind, MeanBps: mean, Seconds: 600, Seed: 11})
			got := tr.Mean()
			// rescaleToMean floors samples, so the mean can be slightly above.
			if math.Abs(got-mean)/mean > 0.02 {
				t.Errorf("%s mean %.0f, want %.0f", kind, got, mean)
			}
		}
	}
}

func TestValidate(t *testing.T) {
	good := Generate(GenSpec{Name: "g", Kind: KindFCC, MeanBps: 1e6, Seconds: 60, Seed: 3})
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Trace{Name: "bad", BitsPerSecond: []float64{1, 0, 1}}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero sample should fail validation")
	}
	empty := &Trace{Name: "empty"}
	if err := empty.Validate(); err == nil {
		t.Fatal("empty trace should fail validation")
	}
	nan := &Trace{Name: "nan", BitsPerSecond: []float64{math.NaN()}}
	if err := nan.Validate(); err == nil {
		t.Fatal("NaN sample should fail validation")
	}
}

func TestHSDPABurstierThanFCC(t *testing.T) {
	fcc := Generate(GenSpec{Name: "f", Kind: KindFCC, MeanBps: 2e6, Seconds: 900, Seed: 5})
	hs := Generate(GenSpec{Name: "h", Kind: KindHSDPA, MeanBps: 2e6, Seconds: 900, Seed: 5})
	cvF := stats.StdDev(fcc.BitsPerSecond) / fcc.Mean()
	cvH := stats.StdDev(hs.BitsPerSecond) / hs.Mean()
	if cvH <= cvF {
		t.Fatalf("HSDPA cv %.3f not burstier than FCC cv %.3f", cvH, cvF)
	}
}

func TestScaled(t *testing.T) {
	tr := Generate(GenSpec{Name: "s", Kind: KindFCC, MeanBps: 1e6, Seconds: 60, Seed: 9})
	half := tr.Scaled(0.5)
	if math.Abs(half.Mean()-tr.Mean()/2) > 1 {
		t.Fatalf("scaled mean %.1f, want %.1f", half.Mean(), tr.Mean()/2)
	}
	if len(half.BitsPerSecond) != len(tr.BitsPerSecond) {
		t.Fatal("scaled length differs")
	}
}

func TestWithNoiseRaisesVariance(t *testing.T) {
	tr := Generate(GenSpec{Name: "n", Kind: KindFCC, MeanBps: 2e6, Seconds: 600, Seed: 13})
	rng := stats.NewRNG(1)
	noisy := tr.WithNoise(800_000, floorBps, rng)
	if stats.StdDev(noisy.BitsPerSecond) <= stats.StdDev(tr.BitsPerSecond) {
		t.Fatalf("noise did not raise stddev: %.0f vs %.0f", stats.StdDev(noisy.BitsPerSecond), stats.StdDev(tr.BitsPerSecond))
	}
	if err := noisy.Validate(); err != nil {
		t.Fatal(err)
	}
	// Mean should be roughly preserved (zero-mean noise, modulo flooring).
	if math.Abs(noisy.Mean()-tr.Mean())/tr.Mean() > 0.05 {
		t.Fatalf("noise shifted mean: %.0f vs %.0f", noisy.Mean(), tr.Mean())
	}
}

func TestAtWrapsAround(t *testing.T) {
	tr := &Trace{Name: "w", BitsPerSecond: []float64{1, 2, 3}}
	if tr.At(0) != 1 || tr.At(1.5) != 2 || tr.At(3) != 1 || tr.At(4.2) != 2 {
		t.Fatal("At does not wrap correctly")
	}
	if tr.At(-5) != 1 {
		t.Fatal("negative time should clamp to start")
	}
}

func TestCursorDownloadExactBucket(t *testing.T) {
	tr := &Trace{Name: "c", BitsPerSecond: []float64{1000, 1000}}
	c := NewCursor(tr)
	took := c.Download(500)
	if math.Abs(took-0.5) > 1e-9 {
		t.Fatalf("download took %v, want 0.5", took)
	}
	if math.Abs(c.Now()-0.5) > 1e-9 {
		t.Fatalf("cursor at %v", c.Now())
	}
}

func TestCursorDownloadAcrossBuckets(t *testing.T) {
	// 1000 bps then 2000 bps: 2000 bits = 1s @1000 + 0.5s @2000.
	tr := &Trace{Name: "c2", BitsPerSecond: []float64{1000, 2000}}
	c := NewCursor(tr)
	took := c.Download(2000)
	if math.Abs(took-1.5) > 1e-9 {
		t.Fatalf("download took %v, want 1.5", took)
	}
}

func TestCursorDownloadWraps(t *testing.T) {
	tr := &Trace{Name: "c3", BitsPerSecond: []float64{1000}}
	c := NewCursor(tr)
	took := c.Download(5000)
	if math.Abs(took-5) > 1e-9 {
		t.Fatalf("download took %v, want 5", took)
	}
}

func TestCursorAdvance(t *testing.T) {
	tr := &Trace{Name: "c4", BitsPerSecond: []float64{1000}}
	c := NewCursor(tr)
	c.Advance(2.5)
	if c.Now() != 2.5 {
		t.Fatalf("now = %v", c.Now())
	}
	c.Advance(-1) // ignored
	if c.Now() != 2.5 {
		t.Fatalf("negative advance moved cursor to %v", c.Now())
	}
}

func TestCursorZeroDownload(t *testing.T) {
	tr := &Trace{Name: "c5", BitsPerSecond: []float64{1000}}
	c := NewCursor(tr)
	if took := c.Download(0); took != 0 {
		t.Fatalf("zero download took %v", took)
	}
	if took := c.Download(-100); took != 0 {
		t.Fatalf("negative download took %v", took)
	}
}

func TestMeanAhead(t *testing.T) {
	tr := &Trace{Name: "m", BitsPerSecond: []float64{1000, 3000}}
	c := NewCursor(tr)
	if got := c.MeanAhead(2); math.Abs(got-2000) > 1e-9 {
		t.Fatalf("MeanAhead = %v", got)
	}
	if got := c.MeanAhead(0); got != 1000 {
		t.Fatalf("MeanAhead(0) = %v", got)
	}
}

func TestTestSetProperties(t *testing.T) {
	set := TestSet()
	if len(set) != 10 {
		t.Fatalf("TestSet has %d traces, want 10 (§7.1)", len(set))
	}
	prev := 0.0
	for _, tr := range set {
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		m := tr.Mean()
		if m < 0.2e6 || m > 6e6 {
			t.Errorf("%s mean %.0f outside the paper's 0.2-6 Mbps envelope", tr.Name, m)
		}
		if m <= prev {
			t.Errorf("%s breaks Fig-14 ordering by ascending mean", tr.Name)
		}
		prev = m
	}
}

func TestModelSetProperties(t *testing.T) {
	set := ModelSet()
	if len(set) != 7 {
		t.Fatalf("ModelSet has %d traces, want 7 (§2.2)", len(set))
	}
	for _, tr := range set {
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTrainingSetDisjointSeeds(t *testing.T) {
	a := TrainingSet(5, 1)
	b := TrainingSet(5, 2)
	if a[0].BitsPerSecond[0] == b[0].BitsPerSecond[0] {
		t.Fatal("different seeds produced identical training traces")
	}
	if len(TrainingSet(3, 9)) != 3 {
		t.Fatal("wrong training set size")
	}
}

// Property: downloading in two halves equals downloading in one go.
func TestCursorSplitDownloadProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed | 1)
		tr := Generate(GenSpec{Name: "p", Kind: KindHSDPA, MeanBps: rng.Range(0.3e6, 5e6), Seconds: 60, Seed: seed})
		bits := rng.Range(1e5, 1e7)
		whole := NewCursor(tr)
		tWhole := whole.Download(bits)
		split := NewCursor(tr)
		t1 := split.Download(bits * 0.3)
		t2 := split.Download(bits * 0.7)
		return math.Abs(tWhole-(t1+t2)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: scaling the trace up strictly speeds up any download. (Exact
// inverse proportionality only holds for constant traces, because a faster
// download traverses a different window of a time-varying trace.)
func TestCursorScalingProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed | 1)
		tr := Generate(GenSpec{Name: "p2", Kind: KindFCC, MeanBps: rng.Range(0.5e6, 4e6), Seconds: 60, Seed: seed})
		bits := rng.Range(1e5, 5e6)
		base := NewCursor(tr).Download(bits)
		doubled := NewCursor(tr.Scaled(2)).Download(bits)
		return doubled < base+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCursorScalingExactOnConstantTrace(t *testing.T) {
	tr := &Trace{Name: "const", BitsPerSecond: []float64{1e6, 1e6, 1e6}}
	base := NewCursor(tr).Download(2.5e6)
	doubled := NewCursor(tr.Scaled(2)).Download(2.5e6)
	if math.Abs(doubled-base/2) > 1e-9 {
		t.Fatalf("constant trace: doubled %v, want %v", doubled, base/2)
	}
}

// TestGenerateValidatesKind pins the unknown-kind fix: a typo'd family used
// to silently generate as FCC; now GenSpec.Validate rejects it and Generate
// panics loudly. The empty kind stays the documented FCC default.
func TestGenerateValidatesKind(t *testing.T) {
	if err := (GenSpec{Kind: "fccc"}).Validate(); err == nil {
		t.Error("unknown kind validated")
	}
	for _, k := range []Kind{KindFCC, KindHSDPA, ""} {
		if err := (GenSpec{Kind: k}).Validate(); err != nil {
			t.Errorf("kind %q rejected: %v", k, err)
		}
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("Generate accepted an unknown kind without panicking")
			}
		}()
		Generate(GenSpec{Name: "typo", Kind: "fccc", MeanBps: 1e6, Seconds: 10, Seed: 1})
	}()

	// The empty kind is FCC, sample for sample.
	spec := GenSpec{Name: "dflt", MeanBps: 1.5e6, Seconds: 30, Seed: 9}
	def := Generate(spec)
	spec.Kind = KindFCC
	fcc := Generate(spec)
	for i := range def.BitsPerSecond {
		if def.BitsPerSecond[i] != fcc.BitsPerSecond[i] {
			t.Fatalf("sample %d: empty-kind %v vs FCC %v", i, def.BitsPerSecond[i], fcc.BitsPerSecond[i])
		}
	}
}
