package main

import (
	"math/bits"
	"sort"

	"sensei/internal/stats"
)

// hist is a fixed-size log-bucket histogram of nanosecond samples: 64
// sub-buckets per power of two, so a bucket is at most 1/64 wide and any
// value reported from inside it is within 1 % of the sample it stands for
// (half that on average). It is preallocated per worker, so recording
// a latency sample in the timed region allocates nothing (growing sample
// slices in the prototype cost sim_plan a 10 % run-to-run cv).
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	histSub     = 64
	histMaxBits = 40 // samples are clamped below 2^40 ns (~18 min)
	histBuckets = histSub + (histMaxBits-6)*histSub
)

func bucketOf(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	v := uint64(ns)
	if v < histSub {
		return int(v)
	}
	if v >= 1<<histMaxBits {
		v = 1<<histMaxBits - 1
	}
	e := bits.Len64(v) - 7 // v>>e is in [64, 128)
	return histSub + e*histSub + int(v>>uint(e)) - histSub
}

// bucketBounds returns the half-open range of values bucket i holds.
func bucketBounds(i int) (lo, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	e := uint((i - histSub) / histSub)
	sub := uint64((i - histSub) % histSub)
	return float64((histSub + sub) << e), float64(uint64(1) << e)
}

func (h *hist) add(ns int64) {
	h.counts[bucketOf(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

func (h *hist) reset() { *h = hist{} }

// bucketCount is one non-empty bucket; a []bucketCount is a compact copy of
// a histogram that holds few samples.
type bucketCount struct {
	bucket uint16
	count  uint32
}

func (h *hist) compact() []bucketCount {
	var out []bucketCount
	for i, c := range h.counts {
		if c > 0 {
			out = append(out, bucketCount{uint16(i), uint32(c)})
		}
	}
	return out
}

func (h *hist) addCompact(bs []bucketCount) {
	for _, b := range bs {
		h.counts[b.bucket] += uint64(b.count)
		h.n += uint64(b.count)
	}
}

// quantile returns the q-quantile in nanoseconds (0 for an empty
// histogram), interpolated inside its bucket by rank so that two runs do not
// read the same value merely because they share a bucket.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	if rank > float64(h.n-1) {
		rank = float64(h.n - 1)
	}
	var seen uint64
	for i, c := range h.counts {
		if c > 0 && float64(seen+c) > rank {
			lo, width := bucketBounds(i)
			if i < histSub {
				return lo // below 64 ns a bucket is one exact value
			}
			return lo + width*(rank-float64(seen)+0.5)/float64(c)
		}
		seen += c
	}
	lo, width := bucketBounds(histBuckets - 1)
	return lo + width
}

// tailSupport is how many samples must lie beyond a reported percentile.
const tailSupport = 10

// supportedQuantile lowers q until at least tailSupport of n samples lie
// beyond it (never below the median): a p99 of 300 samples is three samples
// deep and belongs to the scheduler, not to the code under test.
func supportedQuantile(q float64, n uint64) float64 {
	if n < 2*tailSupport {
		return 0.5
	}
	return min(q, 1-tailSupport/float64(n))
}

// tailUs returns the highest supported quantile at or below q, in µs.
func (h *hist) tailUs(q float64) float64 {
	return h.quantile(supportedQuantile(q, h.n)) / 1e3
}

// median returns the middle of xs (mean of the two middles when even),
// leaving xs untouched. Rates and CPU are reported as the median over reps,
// never total/total: one rep that a neighbour's burst slowed threefold moves
// total/total by a third and the median not at all.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, 0.5)
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method), so the
// spreads this tool prints are the spreads the driver computes.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	if m < 0 {
		m = -m
	}
	return (q3 - q1) / m
}
