package main

import (
	"math"
	"sort"
)

// quantile returns the q-th quantile (0 <= q <= 1) of sorted by linear
// interpolation between closest ranks — the same rule as numpy's default and
// Python's statistics.quantiles(method="inclusive"). sorted must be ascending;
// an empty slice yields 0.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sample is a set of measurements of one quantity. The count travels with
// every percentile so a reader can tell a p90 over 30,000 samples from one
// over 30.
type sample struct {
	sorted []float64
}

func newSample(values []float64) sample {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return sample{sorted: s}
}

func (s sample) n() int              { return len(s.sorted) }
func (s sample) q(p float64) float64 { return quantile(s.sorted, p) }
func (s sample) max() float64 {
	if len(s.sorted) == 0 {
		return 0
	}
	return s.sorted[len(s.sorted)-1]
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (the "exclusive" method,
// positions at k*(n+1)/4), because that is the rule the benchmark driver
// applies to the per-run values; using another rule here would make the
// spreads selfcheck prints disagree with the ones the driver computes.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		j, delta := k*(n+1)/4, k*(n+1)%4
		j = min(max(j, 1), n-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile range as a share of the median: the driver's
// steadiness measure for one metric on one workload.
func spread(values []float64) float64 {
	q1, med, q3 := quartiles(values)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// worsening returns by what share of a's median b's median is worse, given
// the metric's direction; negative means b is better.
func worsening(aMed, bMed float64, lowerIsBetter bool) float64 {
	if aMed == 0 {
		return 0
	}
	d := (bMed - aMed) / math.Abs(aMed)
	if !lowerIsBetter {
		d = -d
	}
	return d
}

// midmean is the interquartile mean: the average of what is left after the
// lowest and the highest quarter of the values are dropped. The reference
// host's CPU speed and fsync latency move by tens of percent for a second or
// two at a time (README, "Why slices"); each run is therefore cut into
// one-second slices and a metric is the midmean of its per-slice values, which
// ignores a disturbed minority of slices on either side where a plain mean
// over the window would absorb them. Unlike a median of slices it is not
// quantized by whole blocks per slice.
func midmean(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	cut := len(s) / 4
	kept := s[cut : len(s)-cut]
	total := 0.0
	for _, v := range kept {
		total += v
	}
	return total / float64(len(kept))
}
