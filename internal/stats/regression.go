package stats

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a linear system has no unique solution.
var ErrSingular = errors.New("stats: singular system")

// SolveLinear solves the square system A x = b by Gaussian elimination with
// partial pivoting. A is given in row-major order and is not modified.
func SolveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 || len(b) != n {
		return nil, fmt.Errorf("stats: bad system dimensions %dx%d vs %d", len(a), len(a), len(b))
	}
	// Work on copies: callers reuse their matrices.
	m := make([][]float64, n)
	for i := range m {
		if len(a[i]) != n {
			return nil, fmt.Errorf("stats: row %d has %d columns, want %d", i, len(a[i]), n)
		}
		m[i] = append([]float64(nil), a[i]...)
		m[i] = append(m[i], b[i])
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		best := math.Abs(m[col][col])
		for row := col + 1; row < n; row++ {
			if v := math.Abs(m[row][col]); v > best {
				best, pivot = v, row
			}
		}
		if best < 1e-12 {
			return nil, ErrSingular
		}
		m[col], m[pivot] = m[pivot], m[col]
		inv := 1 / m[col][col]
		for row := col + 1; row < n; row++ {
			f := m[row][col] * inv
			if f == 0 {
				continue
			}
			for k := col; k <= n; k++ {
				m[row][k] -= f * m[col][k]
			}
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := m[i][n]
		for k := i + 1; k < n; k++ {
			sum -= m[i][k] * x[k]
		}
		x[i] = sum / m[i][i]
	}
	return x, nil
}

// Ridge fits y ≈ X w with an L2 penalty lambda on w (lambda = 0 gives OLS).
// X has one row per observation; all rows must share the same width. The
// intercept, if wanted, must be supplied as a constant column by the caller.
func Ridge(x [][]float64, y []float64, lambda float64) ([]float64, error) {
	n := len(x)
	if n == 0 {
		return nil, errors.New("stats: no observations")
	}
	if len(y) != n {
		return nil, fmt.Errorf("stats: %d observations but %d targets", n, len(y))
	}
	p := len(x[0])
	if p == 0 {
		return nil, errors.New("stats: no features")
	}
	if lambda < 0 {
		return nil, fmt.Errorf("stats: negative ridge penalty %g", lambda)
	}
	// Normal equations: (XᵀX + λI) w = Xᵀy.
	xtx := make([][]float64, p)
	for i := range xtx {
		xtx[i] = make([]float64, p)
	}
	xty := make([]float64, p)
	for r, row := range x {
		if len(row) != p {
			return nil, fmt.Errorf("stats: row %d has %d features, want %d", r, len(row), p)
		}
		for i := 0; i < p; i++ {
			if row[i] == 0 {
				continue
			}
			xty[i] += row[i] * y[r]
			for j := i; j < p; j++ {
				xtx[i][j] += row[i] * row[j]
			}
		}
	}
	for i := 0; i < p; i++ {
		for j := 0; j < i; j++ {
			xtx[i][j] = xtx[j][i]
		}
		xtx[i][i] += lambda
	}
	return SolveLinear(xtx, xty)
}

// Dot returns the inner product of a and b. It panics if lengths differ,
// because mismatched feature vectors are a programming error.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("stats: dot of length %d and %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// LinearModel is a fitted linear predictor: ŷ = w · features.
type LinearModel struct {
	// Weights holds one coefficient per feature column, in fit order.
	Weights []float64
}

// FitLinear fits a LinearModel by ridge regression.
func FitLinear(x [][]float64, y []float64, lambda float64) (*LinearModel, error) {
	w, err := Ridge(x, y, lambda)
	if err != nil {
		return nil, err
	}
	return &LinearModel{Weights: w}, nil
}

// Predict evaluates the model on one feature vector.
func (m *LinearModel) Predict(features []float64) float64 {
	return Dot(m.Weights, features)
}
