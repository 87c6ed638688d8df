package nn

import (
	"math"
	"testing"
	"testing/quick"

	"sensei/internal/stats"
)

func TestNewMLPValidates(t *testing.T) {
	if _, err := NewMLP(1, 4); err == nil {
		t.Error("single layer size should fail")
	}
	if _, err := NewMLP(1, 4, 0); err == nil {
		t.Error("zero-size layer should fail")
	}
	m, err := NewMLP(1, 3, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.InputSize() != 3 || m.OutputSize() != 2 {
		t.Fatalf("sizes %d/%d", m.InputSize(), m.OutputSize())
	}
}

func TestMLPForwardDeterministic(t *testing.T) {
	a, _ := NewMLP(7, 4, 8, 2)
	b, _ := NewMLP(7, 4, 8, 2)
	in := []float64{0.1, -0.2, 0.3, 0.4}
	oa := append([]float64(nil), a.Forward(in)...)
	ob := b.Forward(in)
	for i := range oa {
		if oa[i] != ob[i] {
			t.Fatal("same seed produced different networks")
		}
	}
}

func TestMLPLearnsXOR(t *testing.T) {
	m, _ := NewMLP(3, 2, 16, 1)
	inputs := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	targets := []float64{0, 1, 1, 0}
	for epoch := 0; epoch < 2000; epoch++ {
		for i, in := range inputs {
			out := m.Forward(in)
			diff := out[0] - targets[i]
			m.Backward([]float64{2 * diff})
		}
		m.Step(0.01, len(inputs), 0)
	}
	for i, in := range inputs {
		got := m.Forward(in)[0]
		if math.Abs(got-targets[i]) > 0.2 {
			t.Fatalf("XOR(%v) = %.3f, want %v", in, got, targets[i])
		}
	}
}

func TestMLPGradientCheck(t *testing.T) {
	// Numerical gradient check on a tiny network: loss = output^2 / 2.
	m, _ := NewMLP(9, 2, 3, 1)
	in := []float64{0.5, -0.3}
	out := m.Forward(in)
	m.Backward([]float64{out[0]})
	analytic := m.layers[0].gw[0] // d loss / d w[0][0] of layer 0

	const eps = 1e-6
	l := m.layers[0]
	orig := l.w[0]
	l.w[0] = orig + eps
	up := m.Forward(in)[0]
	l.w[0] = orig - eps
	down := m.Forward(in)[0]
	l.w[0] = orig
	numeric := (up*up - down*down) / 2 / (2 * eps)
	if math.Abs(analytic-numeric) > 1e-4*(1+math.Abs(numeric)) {
		t.Fatalf("gradient mismatch: analytic %v numeric %v", analytic, numeric)
	}
}

func TestMLPForwardPanicsOnBadInput(t *testing.T) {
	m, _ := NewMLP(1, 3, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong input size")
		}
	}()
	m.Forward([]float64{1})
}

func TestSoftmax(t *testing.T) {
	p := Softmax([]float64{1, 2, 3}, nil)
	var sum float64
	for _, v := range p {
		if v <= 0 || v >= 1 {
			t.Fatalf("probability %v out of range", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("sum %v", sum)
	}
	if !(p[2] > p[1] && p[1] > p[0]) {
		t.Fatalf("softmax not monotone: %v", p)
	}
}

func TestSoftmaxStability(t *testing.T) {
	p := Softmax([]float64{1000, 1001}, nil)
	if math.IsNaN(p[0]) || math.IsNaN(p[1]) {
		t.Fatal("softmax overflowed")
	}
	if p[1] <= p[0] {
		t.Fatal("ordering lost")
	}
}

func TestSampleCategoricalDistribution(t *testing.T) {
	rng := stats.NewRNG(5)
	p := []float64{0.1, 0.6, 0.3}
	counts := make([]int, 3)
	const n = 30000
	for i := 0; i < n; i++ {
		counts[SampleCategorical(p, rng)]++
	}
	for i, want := range p {
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("category %d frequency %v, want %v", i, got, want)
		}
	}
}

func TestArgmax(t *testing.T) {
	if Argmax([]float64{1, 5, 3}) != 1 {
		t.Fatal("wrong argmax")
	}
	if Argmax([]float64{7}) != 0 {
		t.Fatal("singleton argmax")
	}
}

func TestLSTMLearnsSum(t *testing.T) {
	// Target: sum of a short sequence of scalars — requires memory.
	l, err := NewLSTMRegressor(3, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(17)
	var samples []SeqSample
	for i := 0; i < 120; i++ {
		n := 2 + rng.Intn(4)
		seq := make([][]float64, n)
		var sum float64
		for j := range seq {
			v := rng.Range(0, 0.5)
			seq[j] = []float64{v}
			sum += v
		}
		samples = append(samples, SeqSample{Seq: seq, Target: sum})
	}
	if _, err := l.Fit(samples, 60, 0.01, 1); err != nil {
		t.Fatal(err)
	}
	var sse, count float64
	for _, s := range samples[:40] {
		d := l.Predict(s.Seq) - s.Target
		sse += d * d
		count++
	}
	if rmse := math.Sqrt(sse / count); rmse > 0.15 {
		t.Fatalf("LSTM failed to learn summation: rmse %v", rmse)
	}
}

func TestLSTMValidatesInput(t *testing.T) {
	if _, err := NewLSTMRegressor(1, 0, 4); err == nil {
		t.Error("zero input width should fail")
	}
	l, _ := NewLSTMRegressor(1, 2, 4)
	if _, err := l.Fit(nil, 1, 0.01, 1); err == nil {
		t.Error("empty training set should fail")
	}
	bad := []SeqSample{{Seq: [][]float64{{1, 2, 3}}, Target: 0}}
	if _, err := l.Fit(bad, 1, 0.01, 1); err == nil {
		t.Error("wrong feature width should fail")
	}
}

func TestLSTMEmptySequence(t *testing.T) {
	l, _ := NewLSTMRegressor(1, 2, 4)
	_ = l.Predict(nil) // must not panic
}

func TestTreeFitsStep(t *testing.T) {
	// y = 1 when x > 0.5 else 0 — one split suffices.
	rng := stats.NewRNG(23)
	var x [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		v := rng.Float64()
		x = append(x, []float64{v})
		if v > 0.5 {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	tree, err := FitTree(x, y, TreeConfig{}, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Predict([]float64{0.9}); math.Abs(got-1) > 0.05 {
		t.Fatalf("high side %v", got)
	}
	if got := tree.Predict([]float64{0.1}); math.Abs(got) > 0.05 {
		t.Fatalf("low side %v", got)
	}
	if depth(tree.root) < 1 {
		t.Fatal("tree did not split")
	}
}

func TestTreeRespectsDepthLimit(t *testing.T) {
	rng := stats.NewRNG(29)
	var x [][]float64
	var y []float64
	for i := 0; i < 300; i++ {
		v := rng.Float64()
		x = append(x, []float64{v})
		y = append(y, math.Sin(10*v))
	}
	tree, err := FitTree(x, y, TreeConfig{MaxDepth: 2, MinLeaf: 2}, stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	if d := depth(tree.root); d > 2 {
		t.Fatalf("depth %d exceeds limit", d)
	}
}

func TestTreeValidates(t *testing.T) {
	if _, err := FitTree(nil, nil, TreeConfig{}, stats.NewRNG(1)); err == nil {
		t.Error("empty training set should fail")
	}
	if _, err := FitTree([][]float64{{1}}, []float64{1, 2}, TreeConfig{}, stats.NewRNG(1)); err == nil {
		t.Error("mismatched lengths should fail")
	}
}

func TestForestBeatsConstant(t *testing.T) {
	rng := stats.NewRNG(31)
	var x [][]float64
	var y []float64
	for i := 0; i < 400; i++ {
		a, b := rng.Float64(), rng.Float64()
		x = append(x, []float64{a, b})
		y = append(y, 2*a-b+0.05*rng.Norm())
	}
	f, err := FitForest(x[:300], y[:300], ForestConfig{Trees: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.trees) != 20 {
		t.Fatalf("forest size %d", len(f.trees))
	}
	mean := stats.Mean(y[:300])
	var sseF, sseC float64
	for i := 300; i < 400; i++ {
		dF := f.Predict(x[i]) - y[i]
		dC := mean - y[i]
		sseF += dF * dF
		sseC += dC * dC
	}
	if sseF >= sseC*0.5 {
		t.Fatalf("forest sse %v not clearly better than constant %v", sseF, sseC)
	}
}

func TestForestDeterministic(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}}
	y := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	a, _ := FitForest(x, y, ForestConfig{Trees: 5, Seed: 9})
	b, _ := FitForest(x, y, ForestConfig{Trees: 5, Seed: 9})
	for _, v := range []float64{1.5, 4.5, 7.5} {
		if a.Predict([]float64{v}) != b.Predict([]float64{v}) {
			t.Fatal("same seed, different forests")
		}
	}
}

// Property: softmax output is a valid distribution for any finite logits.
func TestSoftmaxProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed | 1)
		n := 1 + rng.Intn(10)
		logits := make([]float64, n)
		for i := range logits {
			logits[i] = rng.Range(-50, 50)
		}
		p := Softmax(logits, nil)
		var sum float64
		for _, v := range p {
			if v < 0 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: tree predictions are bounded by the target range.
func TestTreePredictionBoundedProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed | 1)
		n := 20 + rng.Intn(50)
		x := make([][]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = []float64{rng.Float64(), rng.Float64()}
			y[i] = rng.Range(-3, 3)
		}
		tree, err := FitTree(x, y, TreeConfig{}, rng.Fork())
		if err != nil {
			return false
		}
		lo, hi := stats.Min(y), stats.Max(y)
		for i := 0; i < 20; i++ {
			p := tree.Predict([]float64{rng.Float64(), rng.Float64()})
			if p < lo-1e-9 || p > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// depth returns a tree's realized depth (0 for a single leaf).
func depth(n *treeNode) int {
	if n == nil || n.feature < 0 {
		return 0
	}
	return 1 + max(depth(n.left), depth(n.right))
}
