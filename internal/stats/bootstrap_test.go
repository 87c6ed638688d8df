package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBootstrapMeanCoversPoint(t *testing.T) {
	rng := NewRNG(101)
	xs := make([]float64, 80)
	for i := range xs {
		xs[i] = 5 + 2*rng.Norm()
	}
	iv := BootstrapMean(xs, 0.95, 500, NewRNG(7))
	if iv.Lo > iv.Point || iv.Hi < iv.Point {
		t.Fatalf("interval [%v, %v] excludes point %v", iv.Lo, iv.Hi, iv.Point)
	}
	if iv.Hi-iv.Lo <= 0 {
		t.Fatal("zero-width interval on noisy data")
	}
	// Width should be around 2*1.96*sigma/sqrt(n) ≈ 0.88.
	width := iv.Hi - iv.Lo
	if width < 0.3 || width > 2 {
		t.Fatalf("implausible width %v", width)
	}
}

func TestBootstrapMeanDegenerateInputs(t *testing.T) {
	iv := BootstrapMean(nil, 0.95, 100, NewRNG(1))
	if iv.Point != 0 || iv.Lo != 0 || iv.Hi != 0 {
		t.Fatalf("empty input interval %+v", iv)
	}
	single := BootstrapMean([]float64{3}, 0.95, 100, NewRNG(1))
	if single.Lo != 3 || single.Hi != 3 {
		t.Fatalf("single sample interval %+v", single)
	}
	noRng := BootstrapMean([]float64{1, 2, 3}, 0.95, 100, nil)
	if noRng.Lo != noRng.Point {
		t.Fatalf("nil rng interval %+v", noRng)
	}
	badLevel := BootstrapMean([]float64{1, 2, 3}, 1.5, 100, NewRNG(1))
	if badLevel.Lo != badLevel.Point {
		t.Fatalf("bad level interval %+v", badLevel)
	}
}

func TestBootstrapMeanDeterministic(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	a := BootstrapMean(xs, 0.9, 300, NewRNG(11))
	b := BootstrapMean(xs, 0.9, 300, NewRNG(11))
	if a != b {
		t.Fatalf("same seed, different intervals: %+v vs %+v", a, b)
	}
}

// Property: narrowing the level narrows the interval.
func TestBootstrapLevelMonotoneProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed | 1)
		xs := make([]float64, 40)
		for i := range xs {
			xs[i] = rng.Range(-3, 3)
		}
		wide := BootstrapMean(xs, 0.99, 400, NewRNG(seed^1))
		narrow := BootstrapMean(xs, 0.5, 400, NewRNG(seed^1))
		return (narrow.Hi - narrow.Lo) <= (wide.Hi-wide.Lo)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: more samples tighten the interval on average.
func TestBootstrapSampleSizeProperty(t *testing.T) {
	rng := NewRNG(77)
	big := make([]float64, 400)
	for i := range big {
		big[i] = rng.Norm()
	}
	wide := BootstrapMean(big[:20], 0.95, 400, NewRNG(5))
	tight := BootstrapMean(big, 0.95, 400, NewRNG(5))
	if (tight.Hi - tight.Lo) >= (wide.Hi - wide.Lo) {
		t.Fatalf("400 samples (%v) not tighter than 20 (%v)",
			tight.Hi-tight.Lo, wide.Hi-wide.Lo)
	}
	if math.Abs(tight.Point) > 0.2 {
		t.Fatalf("large-sample mean %v too far from 0", tight.Point)
	}
}
