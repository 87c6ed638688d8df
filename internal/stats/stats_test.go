package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sequences diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical samples", same)
	}
}

func TestRNGForkDecorrelated(t *testing.T) {
	parent := NewRNG(7)
	child := parent.Fork()
	var match int
	for i := 0; i < 1000; i++ {
		if parent.Uint64() == child.Uint64() {
			match++
		}
	}
	if match > 0 {
		t.Fatalf("forked stream collided %d times", match)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGFloat64Mean(t *testing.T) {
	r := NewRNG(9)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %v too far from 0.5", mean)
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(11)
	var sum, sumSq float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance %v too far from 1", variance)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(5)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d distinct values", len(seen))
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(13)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestSolveLinearKnown(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Solution: x=1, y=3.
	if math.Abs(x[0]-1) > 1e-9 || math.Abs(x[1]-3) > 1e-9 {
		t.Fatalf("got %v, want [1 3]", x)
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	b := []float64{3, 6}
	if _, err := SolveLinear(a, b); err == nil {
		t.Fatal("expected error for singular system")
	}
}

func TestSolveLinearDoesNotMutate(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	if _, err := SolveLinear(a, b); err != nil {
		t.Fatal(err)
	}
	if a[0][0] != 2 || a[1][1] != 3 || b[0] != 5 {
		t.Fatal("inputs were mutated")
	}
}

func TestSolveLinearPivoting(t *testing.T) {
	// Zero on the diagonal forces a pivot swap.
	a := [][]float64{{0, 1}, {1, 0}}
	b := []float64{2, 3}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-3) > 1e-9 || math.Abs(x[1]-2) > 1e-9 {
		t.Fatalf("got %v, want [3 2]", x)
	}
}

func TestOLSRecoversCoefficients(t *testing.T) {
	r := NewRNG(21)
	truth := []float64{1.5, -2.0, 0.7}
	var x [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		row := []float64{1, r.Range(-1, 1), r.Range(-1, 1)}
		x = append(x, row)
		y = append(y, Dot(truth, row)+0.001*r.Norm())
	}
	w, err := Ridge(x, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range truth {
		if math.Abs(w[i]-truth[i]) > 0.01 {
			t.Fatalf("coef %d: got %v want %v", i, w[i], truth[i])
		}
	}
}

func TestRidgeShrinks(t *testing.T) {
	r := NewRNG(22)
	var x [][]float64
	var y []float64
	for i := 0; i < 50; i++ {
		v := r.Range(-1, 1)
		x = append(x, []float64{v})
		y = append(y, 3*v)
	}
	ols, err := Ridge(x, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	ridge, err := Ridge(x, y, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ridge[0]) >= math.Abs(ols[0]) {
		t.Fatalf("ridge %v did not shrink relative to OLS %v", ridge[0], ols[0])
	}
}

func TestRidgeRejectsBadInput(t *testing.T) {
	if _, err := Ridge(nil, nil, 0); err == nil {
		t.Error("expected error for empty input")
	}
	if _, err := Ridge([][]float64{{1}}, []float64{1, 2}, 0); err == nil {
		t.Error("expected error for mismatched lengths")
	}
	if _, err := Ridge([][]float64{{1}}, []float64{1}, -1); err == nil {
		t.Error("expected error for negative lambda")
	}
	if _, err := Ridge([][]float64{{1, 2}, {1}}, []float64{1, 2}, 0); err == nil {
		t.Error("expected error for ragged rows")
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if got := Pearson(xs, ys); math.Abs(got-1) > 1e-12 {
		t.Fatalf("got %v, want 1", got)
	}
	neg := []float64{8, 6, 4, 2}
	if got := Pearson(xs, neg); math.Abs(got+1) > 1e-12 {
		t.Fatalf("got %v, want -1", got)
	}
}

func TestPearsonConstantSeries(t *testing.T) {
	if got := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); got != 0 {
		t.Fatalf("constant series correlation = %v, want 0", got)
	}
}

func TestSpearmanMonotonic(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1, 4, 9, 16, 25} // monotone, nonlinear
	if got := Spearman(xs, ys); math.Abs(got-1) > 1e-12 {
		t.Fatalf("got %v, want 1", got)
	}
}

func TestRanksTies(t *testing.T) {
	ranks := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if ranks[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", ranks, want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := Percentile(xs, 1); got != 5 {
		t.Errorf("p100 = %v", got)
	}
	if got := Percentile(xs, 0.5); got != 3 {
		t.Errorf("p50 = %v", got)
	}
	if got := Percentile(xs, 0.25); got != 2 {
		t.Errorf("p25 = %v", got)
	}
}

// TestCDFMonotone: the empirical CDF, FractionAtMost, rises strictly at
// every distinct sample and reaches 1 at the largest.
func TestCDFMonotone(t *testing.T) {
	xs := []float64{3, 1, 2}
	prev := FractionAtMost(xs, 0)
	for _, v := range []float64{1, 2, 3} {
		got := FractionAtMost(xs, v)
		if got <= prev {
			t.Fatalf("CDF not monotone at %v: %v after %v", v, got, prev)
		}
		prev = got
	}
	if prev != 1 {
		t.Fatalf("CDF does not reach 1: %v", prev)
	}
}

func TestNormalize(t *testing.T) {
	out := Normalize([]float64{2, 4, 6})
	want := []float64{0, 0.5, 1}
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-12 {
			t.Fatalf("got %v, want %v", out, want)
		}
	}
	flat := Normalize([]float64{3, 3})
	if flat[0] != 0.5 || flat[1] != 0.5 {
		t.Fatalf("constant series should map to 0.5, got %v", flat)
	}
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("mean = %v", got)
	}
	if got := Variance(xs); got != 4 {
		t.Errorf("variance = %v", got)
	}
	if got := StdDev(xs); got != 2 {
		t.Errorf("stddev = %v", got)
	}
}

func TestRelativeError(t *testing.T) {
	if got := RelativeError(1.1, 1.0); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("got %v", got)
	}
	if got := RelativeError(0.5, 0); got != 0.5 {
		t.Errorf("zero-actual case got %v", got)
	}
}

// Property: Pearson is invariant under positive affine transforms.
func TestPearsonAffineInvariantProperty(t *testing.T) {
	r := NewRNG(31)
	f := func(seed uint64) bool {
		rng := NewRNG(seed | 1)
		n := 5 + rng.Intn(20)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Range(-10, 10)
			ys[i] = rng.Range(-10, 10)
		}
		base := Pearson(xs, ys)
		a, b := rng.Range(0.1, 5), rng.Range(-3, 3)
		scaled := make([]float64, n)
		for i := range xs {
			scaled[i] = a*xs[i] + b
		}
		return math.Abs(Pearson(scaled, ys)-base) < 1e-9
	}
	cfg := &quick.Config{MaxCount: 50, Rand: nil}
	_ = r
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Spearman is invariant under strictly monotone transforms.
func TestSpearmanMonotoneInvariantProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed | 1)
		n := 5 + rng.Intn(20)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Range(0, 10)
			ys[i] = rng.Range(-5, 5)
		}
		base := Spearman(xs, ys)
		cubed := make([]float64, n)
		for i := range xs {
			cubed[i] = xs[i] * xs[i] * xs[i]
		}
		return math.Abs(Spearman(cubed, ys)-base) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: solving A x = b then multiplying back reproduces b.
func TestSolveLinearRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed | 1)
		n := 2 + rng.Intn(5)
		a := make([][]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = rng.Range(-2, 2)
			}
			a[i][i] += 5 // diagonally dominant: well conditioned
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.Range(-3, 3)
		}
		x, err := SolveLinear(a, b)
		if err != nil {
			return false
		}
		for i := range a {
			if math.Abs(Dot(a[i], x)-b[i]) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.3, 0, 1) != 0.3 {
		t.Fatal("clamp misbehaves")
	}
}

func TestFractionAtMost(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := FractionAtMost(xs, 2); got != 0.5 {
		t.Fatalf("got %v", got)
	}
	if got := FractionAtMost(nil, 2); got != 0 {
		t.Fatalf("empty slice got %v", got)
	}
}
