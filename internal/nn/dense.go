// Package nn is a small, stdlib-only machine-learning substrate for SENSEI's
// learned components: a dense multilayer perceptron with policy-gradient
// training (Pensieve and SENSEI-Pensieve), an LSTM cell with truncated BPTT
// (the LSTM-QoE baseline), and regression trees with bagging (the P.1203
// random-forest baseline).
//
// All arithmetic is float64 and deterministic given a seed; no goroutines
// are used during training so results are bit-reproducible.
package nn

import (
	"fmt"
	"math"

	"sensei/internal/stats"
)

// Activation selects a layer nonlinearity.
type Activation int

// Supported activations.
const (
	// Linear applies no nonlinearity.
	Linear Activation = iota
	// ReLU applies max(0, x).
	ReLU
	// Tanh applies the hyperbolic tangent.
	Tanh
)

func (a Activation) apply(x float64) float64 {
	switch a {
	case ReLU:
		if x < 0 {
			return 0
		}
		return x
	case Tanh:
		return math.Tanh(x)
	default:
		return x
	}
}

// derivative computes d(act)/dx given the activated output y.
func (a Activation) derivative(y float64) float64 {
	switch a {
	case ReLU:
		if y > 0 {
			return 1
		}
		return 0
	case Tanh:
		return 1 - y*y
	default:
		return 1
	}
}

// layer is one dense layer: out = act(W x + b). Its slices are windows
// into the MLP's one backing array.
type layer struct {
	in, out int
	act     Activation
	w       []float64 // row-major out×in
	b       []float64

	// Adam moments.
	mw, vw, mb, vb []float64
	// accumulated gradients (same shapes as w and b).
	gw, gb []float64

	// at is the offset of the layer's input in an activation buffer; its
	// output follows at at+in.
	at int
}

func (l *layer) forward(x []float64, out []float64) {
	for o := 0; o < l.out; o++ {
		s := l.b[o]
		row := l.w[o*l.in : (o+1)*l.in]
		for i, xi := range x {
			s += row[i] * xi
		}
		out[o] = l.act.apply(s)
	}
}

// MLP is a feed-forward network with dense layers.
type MLP struct {
	layers []layer

	// acts is the activation scratch Forward reuses: the inputs, then each
	// layer's outputs, laid out as layer.at describes.
	acts []float64
	step int
}

// NewMLP builds a network with the given layer sizes, e.g. sizes
// [12, 32, 5] is a 12-input, one-hidden-layer (32 ReLU units), 5-output
// network. The final layer is linear; hidden layers use ReLU.
func NewMLP(seed uint64, sizes ...int) (*MLP, error) {
	// The error paths print a copy, so sizes does not escape and a
	// variadic call costs its caller no allocation.
	if len(sizes) < 2 {
		return nil, fmt.Errorf("nn: MLP needs at least 2 sizes, got %v", append([]int(nil), sizes...))
	}
	nActs := 0
	nParams := 0
	for i, s := range sizes {
		if s < 1 {
			return nil, fmt.Errorf("nn: invalid layer size in %v", append([]int(nil), sizes...))
		}
		nActs += s
		if i > 0 {
			nParams += sizes[i-1]*s + s
		}
	}
	// Weights, biases, two Adam moments and the gradient of each, then the
	// activations: one allocation for the whole network.
	buf := make([]float64, 4*nParams+nActs)
	take := func(n int) []float64 {
		s := buf[:n:n]
		buf = buf[n:]
		return s
	}
	rng := stats.NewRNG(seed ^ 0x11e7)
	m := &MLP{layers: make([]layer, len(sizes)-1)}
	at := 0
	for i := range m.layers {
		in, out := sizes[i], sizes[i+1]
		act := ReLU
		if i == len(m.layers)-1 {
			act = Linear
		}
		l := &m.layers[i]
		*l = layer{in: in, out: out, act: act, at: at,
			w: take(in * out), b: take(out),
			mw: take(in * out), vw: take(in * out), mb: take(out), vb: take(out),
			gw: take(in * out), gb: take(out)}
		at += in
		// Xavier-style initialization keeps activations well scaled.
		scale := math.Sqrt(2.0 / float64(in+out))
		for j := range l.w {
			l.w[j] = scale * rng.Norm()
		}
	}
	m.acts = buf
	return m, nil
}

// InputSize returns the expected input width.
func (m *MLP) InputSize() int { return m.layers[0].in }

// OutputSize returns the output width.
func (m *MLP) OutputSize() int { return m.layers[len(m.layers)-1].out }

// Forward runs the network and returns the output activations. The returned
// slice is owned by the MLP and overwritten by the next call; callers that
// retain it must copy. Forward uses the MLP's internal scratch and is NOT
// safe for concurrent use — concurrent inference over a shared trained
// network must go through ForwardWith with per-goroutine scratch.
func (m *MLP) Forward(x []float64) []float64 {
	return m.forwardInto(m.acts, x)
}

// Scratch holds activation buffers for concurrent inference. The zero value
// is ready to use; it keeps no reference to any network, so one Scratch can
// serve networks of any shape in turn.
type Scratch struct {
	acts []float64
}

// ForwardWith runs the network through caller-owned scratch, so any number
// of goroutines can share one trained MLP (weights are read-only here).
// The scratch grows to the network's shape, reusing its capacity. The
// returned slice is owned by the scratch and overwritten by its next use.
func (m *MLP) ForwardWith(s *Scratch, x []float64) []float64 {
	if n := len(m.acts); cap(s.acts) < n {
		s.acts = make([]float64, n)
	} else {
		s.acts = s.acts[:n]
	}
	return m.forwardInto(s.acts, x)
}

func (m *MLP) forwardInto(acts []float64, x []float64) []float64 {
	if len(x) != m.InputSize() {
		panic(fmt.Sprintf("nn: input size %d, want %d", len(x), m.InputSize()))
	}
	copy(acts, x)
	for i := range m.layers {
		l := &m.layers[i]
		l.forward(acts[l.at:l.at+l.in], acts[l.at+l.in:l.at+l.in+l.out])
	}
	return acts[len(acts)-m.OutputSize():]
}

// Backward accumulates gradients for one example given dLoss/dOutput. It
// must be called immediately after Forward on the same input.
func (m *MLP) Backward(dOut []float64) {
	if len(dOut) != m.OutputSize() {
		panic(fmt.Sprintf("nn: grad size %d, want %d", len(dOut), m.OutputSize()))
	}
	delta := append([]float64(nil), dOut...)
	for li := len(m.layers) - 1; li >= 0; li-- {
		l := &m.layers[li]
		in := m.acts[l.at : l.at+l.in]
		out := m.acts[l.at+l.in : l.at+l.in+l.out]
		// Chain through activation.
		for o := 0; o < l.out; o++ {
			delta[o] *= l.act.derivative(out[o])
		}
		// Accumulate gradients.
		for o := 0; o < l.out; o++ {
			l.gb[o] += delta[o]
			base := o * l.in
			for i := 0; i < l.in; i++ {
				l.gw[base+i] += delta[o] * in[i]
			}
		}
		// Propagate to previous layer.
		if li > 0 {
			prev := make([]float64, l.in)
			for i := 0; i < l.in; i++ {
				var s float64
				for o := 0; o < l.out; o++ {
					s += l.w[o*l.in+i] * delta[o]
				}
				prev[i] = s
			}
			delta = prev
		}
	}
}

// Adam hyperparameters.
const (
	adamBeta1 = 0.9
	adamBeta2 = 0.999
	adamEps   = 1e-8
)

// Step applies one Adam update using the accumulated gradients (averaged
// over batch examples) and clears them. lr is the learning rate; clip, if
// positive, bounds the global gradient norm.
func (m *MLP) Step(lr float64, batch int, clip float64) {
	if batch < 1 {
		batch = 1
	}
	inv := 1 / float64(batch)
	// Optional global-norm clipping.
	if clip > 0 {
		var norm float64
		for li := range m.layers {
			for _, g := range m.layers[li].gw {
				norm += g * g * inv * inv
			}
			for _, g := range m.layers[li].gb {
				norm += g * g * inv * inv
			}
		}
		norm = math.Sqrt(norm)
		if norm > clip {
			inv *= clip / norm
		}
	}
	m.step++
	bc1 := 1 - math.Pow(adamBeta1, float64(m.step))
	bc2 := 1 - math.Pow(adamBeta2, float64(m.step))
	for li := range m.layers {
		l := &m.layers[li]
		for i := range l.w {
			g := l.gw[i] * inv
			l.mw[i] = adamBeta1*l.mw[i] + (1-adamBeta1)*g
			l.vw[i] = adamBeta2*l.vw[i] + (1-adamBeta2)*g*g
			l.w[i] -= lr * (l.mw[i] / bc1) / (math.Sqrt(l.vw[i]/bc2) + adamEps)
			l.gw[i] = 0
		}
		for i := range l.b {
			g := l.gb[i] * inv
			l.mb[i] = adamBeta1*l.mb[i] + (1-adamBeta1)*g
			l.vb[i] = adamBeta2*l.vb[i] + (1-adamBeta2)*g*g
			l.b[i] -= lr * (l.mb[i] / bc1) / (math.Sqrt(l.vb[i]/bc2) + adamEps)
			l.gb[i] = 0
		}
	}
}

// Snapshot captures the network's weights (not optimizer state) for later
// restoration — used by trainers that keep the best-validating policy.
func (m *MLP) Snapshot() [][]float64 {
	out := make([][]float64, 0, 2*len(m.layers))
	for _, l := range m.layers {
		out = append(out, append([]float64(nil), l.w...))
		out = append(out, append([]float64(nil), l.b...))
	}
	return out
}

// Restore loads weights captured by Snapshot. It panics on a shape
// mismatch, which indicates snapshots from a different architecture.
func (m *MLP) Restore(snap [][]float64) {
	if len(snap) != 2*len(m.layers) {
		panic(fmt.Sprintf("nn: snapshot has %d tensors, want %d", len(snap), 2*len(m.layers)))
	}
	for i, l := range m.layers {
		if len(snap[2*i]) != len(l.w) || len(snap[2*i+1]) != len(l.b) {
			panic("nn: snapshot shape mismatch")
		}
		copy(l.w, snap[2*i])
		copy(l.b, snap[2*i+1])
	}
}

// Softmax writes the softmax of logits into out (allocating when out is nil)
// and returns it. It is numerically stable for large logits.
func Softmax(logits, out []float64) []float64 {
	if out == nil {
		out = make([]float64, len(logits))
	}
	maxL := logits[0]
	for _, v := range logits[1:] {
		if v > maxL {
			maxL = v
		}
	}
	var sum float64
	for i, v := range logits {
		e := math.Exp(v - maxL)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// SampleCategorical draws an index from the probability vector p.
func SampleCategorical(p []float64, rng *stats.RNG) int {
	u := rng.Float64()
	var c float64
	for i, v := range p {
		c += v
		if u < c {
			return i
		}
	}
	return len(p) - 1
}

// Argmax returns the index of the largest element.
func Argmax(xs []float64) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}
