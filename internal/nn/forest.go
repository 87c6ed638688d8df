package nn

import (
	"fmt"
	"math"
	"sort"

	"sensei/internal/stats"
)

// This file implements CART-style regression trees and a bagged ensemble
// (random forest). The P.1203 baseline combines bitstream features and
// quality-incident metrics in a random-forest model; this is that substrate.

// treeNode is one node of a regression tree. Leaves have feature == -1.
type treeNode struct {
	feature     int
	threshold   float64
	value       float64
	left, right *treeNode
}

// RegressionTree is a CART regression tree with depth and leaf-size limits.
type RegressionTree struct {
	root     *treeNode
	maxDepth int
	minLeaf  int
}

// TreeConfig bounds tree growth.
type TreeConfig struct {
	// MaxDepth limits tree depth (default 6).
	MaxDepth int
	// MinLeaf is the minimum samples per leaf (default 3).
	MinLeaf int
	// FeatureFraction is the fraction of features considered per split
	// (default 1.0; forests lower it for decorrelation).
	FeatureFraction float64
}

func (c *TreeConfig) defaults() {
	if c.MaxDepth <= 0 {
		c.MaxDepth = 6
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 3
	}
	if c.FeatureFraction <= 0 || c.FeatureFraction > 1 {
		c.FeatureFraction = 1
	}
}

// FitTree trains a regression tree on x (rows of features) and y.
func FitTree(x [][]float64, y []float64, cfg TreeConfig, rng *stats.RNG) (*RegressionTree, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("nn: tree training needs matching non-empty x,y; got %d,%d", len(x), len(y))
	}
	cfg.defaults()
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	t := &RegressionTree{maxDepth: cfg.MaxDepth, minLeaf: cfg.MinLeaf}
	t.root = buildNode(x, y, idx, 0, cfg, rng)
	return t, nil
}

func meanAt(y []float64, idx []int) float64 {
	var s float64
	for _, i := range idx {
		s += y[i]
	}
	return s / float64(len(idx))
}

func sseAt(y []float64, idx []int) float64 {
	m := meanAt(y, idx)
	var s float64
	for _, i := range idx {
		d := y[i] - m
		s += d * d
	}
	return s
}

func buildNode(x [][]float64, y []float64, idx []int, depth int, cfg TreeConfig, rng *stats.RNG) *treeNode {
	if depth >= cfg.MaxDepth || len(idx) < 2*cfg.MinLeaf {
		return &treeNode{feature: -1, value: meanAt(y, idx)}
	}
	nFeatures := len(x[0])
	consider := int(math.Ceil(cfg.FeatureFraction * float64(nFeatures)))
	perm := rng.Perm(nFeatures)[:consider]

	bestSSE := sseAt(y, idx)
	baseSSE := bestSSE
	var bestFeat int = -1
	var bestThresh float64
	for _, f := range perm {
		// Sort indices by this feature and scan split points.
		sorted := append([]int(nil), idx...)
		sort.Slice(sorted, func(a, b int) bool { return x[sorted[a]][f] < x[sorted[b]][f] })
		// Prefix sums for O(n) split evaluation.
		n := len(sorted)
		prefix := make([]float64, n+1)
		prefixSq := make([]float64, n+1)
		for i, id := range sorted {
			prefix[i+1] = prefix[i] + y[id]
			prefixSq[i+1] = prefixSq[i] + y[id]*y[id]
		}
		for split := cfg.MinLeaf; split <= n-cfg.MinLeaf; split++ {
			if x[sorted[split]][f] == x[sorted[split-1]][f] {
				continue // cannot split between equal feature values
			}
			nl, nr := float64(split), float64(n-split)
			sl, sr := prefix[split], prefix[n]-prefix[split]
			ql, qr := prefixSq[split], prefixSq[n]-prefixSq[split]
			sse := (ql - sl*sl/nl) + (qr - sr*sr/nr)
			if sse < bestSSE-1e-12 {
				bestSSE = sse
				bestFeat = f
				bestThresh = (x[sorted[split]][f] + x[sorted[split-1]][f]) / 2
			}
		}
	}
	if bestFeat < 0 || bestSSE >= baseSSE {
		return &treeNode{feature: -1, value: meanAt(y, idx)}
	}
	var left, right []int
	for _, i := range idx {
		if x[i][bestFeat] < bestThresh {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	return &treeNode{
		feature:   bestFeat,
		threshold: bestThresh,
		left:      buildNode(x, y, left, depth+1, cfg, rng),
		right:     buildNode(x, y, right, depth+1, cfg, rng),
	}
}

// Predict evaluates the tree on one feature vector.
func (t *RegressionTree) Predict(features []float64) float64 {
	n := t.root
	for n.feature >= 0 {
		if features[n.feature] < n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

// Forest is a bagged ensemble of regression trees.
type Forest struct {
	trees []*RegressionTree
}

// ForestConfig parameterizes forest training.
type ForestConfig struct {
	// Trees is the ensemble size (default 30).
	Trees int
	// Tree bounds each member tree.
	Tree TreeConfig
	// Seed makes training deterministic.
	Seed uint64
}

// FitForest trains a random forest with bootstrap sampling and per-split
// feature subsampling.
func FitForest(x [][]float64, y []float64, cfg ForestConfig) (*Forest, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("nn: forest training needs matching non-empty x,y; got %d,%d", len(x), len(y))
	}
	if cfg.Trees <= 0 {
		cfg.Trees = 30
	}
	if cfg.Tree.FeatureFraction == 0 {
		cfg.Tree.FeatureFraction = 0.7
	}
	rng := stats.NewRNG(cfg.Seed ^ 0xf03e57)
	f := &Forest{}
	n := len(x)
	for t := 0; t < cfg.Trees; t++ {
		// Bootstrap sample.
		bx := make([][]float64, n)
		by := make([]float64, n)
		for i := 0; i < n; i++ {
			j := rng.Intn(n)
			bx[i] = x[j]
			by[i] = y[j]
		}
		tree, err := FitTree(bx, by, cfg.Tree, rng.Fork())
		if err != nil {
			return nil, err
		}
		f.trees = append(f.trees, tree)
	}
	return f, nil
}

// Predict returns the ensemble-average prediction.
func (f *Forest) Predict(features []float64) float64 {
	if len(f.trees) == 0 {
		return 0
	}
	var s float64
	for _, t := range f.trees {
		s += t.Predict(features)
	}
	return s / float64(len(f.trees))
}
