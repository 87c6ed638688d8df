package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// compareFiles reads two -record files (A: the parent commit or first set,
// B: the change or second set) and prints, per workload x metric, each
// side's median and quartiles, how much worse or better B's median is,
// the share of run pairs B won, and a verdict against the metric's bound.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-13s %-32s %12s %19s %12s %19s %8s %6s  %s\n",
		"workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "B worse", "B wins", "verdict")
	for _, traced := range []bool{false, true} {
		for _, wl := range workloadNames {
			for _, d := range metricTable(traced) {
				va, vb := a.values(wl, traced, d.Name), b.values(wl, traced, d.Name)
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				c := compareMetric(d, va, vb)
				fmt.Fprintf(w, "%-13s %-32s %12.4g %9.4g..%-9.4g %12.4g %9.4g..%-9.4g %+7.1f%% %6.2f  %s\n",
					wl, d.Name, c.medA, c.q1A, c.q3A, c.medB, c.q1B, c.q3B, c.worse*100, c.wins, c.verdict)
			}
		}
	}
	return nil
}

type records []runResult

func readRecords(path string) (records, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out records
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("bench: %s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// values returns one metric's value from every matching run, in run order.
func (rs records) values(workload string, traced bool, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Traced == traced {
			out = append(out, v)
		}
	}
	return out
}

type comparison struct {
	medA, q1A, q3A float64
	medB, q1B, q3B float64
	// worse is how much worse B's median is than A's, as a share of A's
	// (negative: better), in the metric's own direction.
	worse float64
	// wins is the share of pairs (i-th run of A, i-th run of B) B won,
	// ties counting for neither.
	wins    float64
	verdict string
}

// Verdicts.
const (
	verdictGain       = "gain"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
	verdictSame       = "same"
	verdictNoBound    = "-"
)

// compareMetric applies the rule of choosing-metrics section 8. A gain
// needs B to win at least nine tenths of the pairs and the medians to
// differ by more than A's own interquartile range. A regression is B's
// median worse than A's by more than the bound. Where A's spread is wider
// than the bound the metric is unresolved rather than unchanged, unless
// every run of B reads better than every run of A.
func compareMetric(d metricDef, a, b []float64) comparison {
	c := comparison{medA: median(a), medB: median(b)}
	c.q1A, c.q3A = quartiles(a)
	c.q1B, c.q3B = quartiles(b)
	sign := 1.0 // positive difference = worse
	if d.Better == "higher" {
		sign = -1
	}
	if c.medA != 0 {
		c.worse = sign * (c.medB - c.medA) / math.Abs(c.medA)
	}
	pairs, won := min(len(a), len(b)), 0
	for i := 0; i < pairs; i++ {
		if sign*(b[i]-a[i]) < 0 {
			won++
		}
	}
	if pairs > 0 {
		c.wins = float64(won) / float64(pairs)
	}
	allBetter := true
	for _, y := range b {
		for _, x := range a {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	iqrA := c.q3A - c.q1A
	switch {
	case c.wins >= 0.9 && math.Abs(c.medB-c.medA) > iqrA && c.worse < 0:
		c.verdict = verdictGain
	case d.Bound == 0:
		c.verdict = verdictNoBound
	case c.worse > d.Bound:
		c.verdict = verdictRegression
	case c.medA != 0 && iqrA/math.Abs(c.medA) > d.Bound && !allBetter:
		c.verdict = verdictUnresolved
	default:
		c.verdict = verdictSame
	}
	return c
}
